// Asynchronous reclamation service: a pool of dedicated reclaimer threads that
// consume retirement batches from per-thread hand-off rings, collapsing the mutator
// side of FREE to a near-constant-time enqueue.
//
// The inline pipeline (core/reclaim_engine.h) charges every mutator for its own
// verdict scans: when the free set reaches the scan trigger, the retiring thread
// walks every registered thread's roots before it can continue. This service moves
// that work off the mutator path. Each registered thread owns one fixed-capacity
// hand-off ring (single producer: the owning thread; consumers serialize on a
// per-ring try-latch, so any reclaimer — shard owner or thief — can drain it).
// StContext::Free and OpEnd offer retirements to the active service and fall back to
// the inline pipeline when the offer is refused (stats.inline_fallbacks).
//
// Robustness by construction (the reason this service exists — see DESIGN.md §5c):
//  * Work stealing. Rings are partitioned into shards (tid % reclaimers); a
//    reclaimer whose shards are empty drains any other ring it can latch
//    (stats.steals, trace kServiceSteal), so one slow shard never wedges the
//    pipeline.
//  * Bounded inspection. Reclaimer rounds run the staged engine in the mode their
//    StConfig selects, like every other round (by default the §5.2 root table):
//    the inspection protocol's splits-counter retries are capped
//    (StConfig::inspect_retry_cap) and an incomplete root table frees nothing, so
//    a victim parked mid-exposure costs one bounded collection attempt, not a hang.
//    When a round makes no progress against a watchdog-flagged stall, the surviving
//    batch is re-queued to the global deferred list and the reclaimer moves on to
//    fresh work.
//  * Reclaimer failover. Every reclaimer publishes a heartbeat each pass and
//    monitors its peers; a peer whose heartbeat is frozen past the deadline is
//    marked failed (stats.failovers, trace kServiceFailover) and its shards are
//    adopted. If every reclaimer dies, rings fill and producers degrade to the
//    inline pipeline — garbage parked in rings is bounded by ring capacity and is
//    swept to the deferred list at Stop().
//  * Lag-driven back-pressure. Reclaimers periodically sample the registry-wide
//    reclamation lag (retires − frees, the same quantity the T1 timeline exports);
//    only when it exceeds the configured threshold does the service refuse offers
//    (raising the existing backpressure_raise trace event), pushing mutators back
//    to inline scanning until the backlog clears. A service that keeps up never
//    perturbs the hot path.
#ifndef STACKTRACK_CORE_RECLAIM_SERVICE_H_
#define STACKTRACK_CORE_RECLAIM_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/thread_context.h"
#include "runtime/barrier.h"
#include "runtime/cacheline.h"
#include "runtime/thread_registry.h"

namespace stacktrack::core {

struct ReclaimServiceConfig {
  uint32_t reclaimers = 2;         // dedicated reclaimer threads (1..kMaxReclaimers)
  uint32_t ring_capacity = 1024;   // slots per hand-off ring; rounded up to a power of 2
  uint32_t drain_batch = 64;       // max records moved per ring drain
  uint32_t scan_trigger = 64;      // reclaimer free-set size that forces a verdict round
  uint64_t lag_threshold = 4096;   // registry-wide (retires - frees) that engages
                                   // back-pressure; cleared at half this value
  uint32_t lag_check_interval = 16;  // reclaimer passes between lag samples
  uint64_t failover_timeout_ns = 50'000'000;  // frozen-heartbeat deadline (50 ms)
  StConfig reclaimer_config;  // the reclaimer threads' own contexts
};

// At most one service is active (installed) at a time, mirroring the one-StackTrack-
// domain rule. Start() installs, Stop() uninstalls, drains and joins; the destructor
// stops. Stop() must not race a reclaimer parked in a fault gate — release the gate
// first (tests do), and quiesce mutators before destroying the service object.
class ReclaimService {
 public:
  static constexpr uint32_t kMaxReclaimers = 8;

  explicit ReclaimService(const ReclaimServiceConfig& config = {});
  ~ReclaimService();
  ReclaimService(const ReclaimService&) = delete;
  ReclaimService& operator=(const ReclaimService&) = delete;

  // The installed service, or nullptr. One relaxed load; this is the only cost added
  // to StContext::Free when no service runs.
  static ReclaimService* Active() {
    return ActiveSlot().load(std::memory_order_acquire);
  }

  void Start();  // idempotent; aborts if a different service is already installed
  void Stop();   // idempotent; uninstalls, signals, joins, sweeps ring residue

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Producer side (owner thread of `tid` only). Returns the number of pointers
  // accepted — a prefix of `ptrs`. Refuses (returns 0) while back-pressure is
  // engaged or the service is stopping; accepts partially when the ring fills.
  std::size_t OfferBatch(uint32_t tid, void* const* ptrs, std::size_t count);
  bool Offer(uint32_t tid, void* ptr) { return OfferBatch(tid, &ptr, 1) == 1; }

  // ---- Introspection (tests, benchmarks) -------------------------------------------
  const ReclaimServiceConfig& config() const { return config_; }
  std::size_t RingDepth(uint32_t tid) const;
  std::size_t TotalQueued() const;
  uint32_t healthy_reclaimers() const {
    return healthy_.load(std::memory_order_acquire);
  }
  bool backpressure_engaged() const {
    return backpressure_.load(std::memory_order_acquire);
  }
  // Registered tid of reclaimer `index` (kInvalidThreadId until its thread is up).
  uint32_t reclaimer_tid(uint32_t index) const {
    return reclaimer_tids_[index].load(std::memory_order_acquire);
  }

 private:
  enum class ReclaimerState : uint32_t { kRunning = 0, kFailed, kStopped };

  // One hand-off ring. Single producer (the owning mutator thread); consumers —
  // shard owner or thief — serialize on the try-latch. head/tail are monotonic
  // cursors; the live window is [tail, head).
  struct Ring {
    std::atomic<uint64_t> head{0};   // producer cursor (release on publish)
    std::atomic<uint64_t> tail{0};   // consumer cursor (release on consume)
    runtime::SpinLatch consumer_latch;
    std::unique_ptr<void*[]> slots;
  };

  static std::atomic<ReclaimService*>& ActiveSlot() {
    static std::atomic<ReclaimService*> active{nullptr};
    return active;
  }

  void ReclaimerMain(uint32_t index);
  // Drains every ring in the shards `index` currently owns into `ctx`; steals from
  // other rings when its own shards are empty. Returns records moved.
  std::size_t DrainShards(uint32_t index, StContext& ctx);
  std::size_t DrainRing(uint32_t tid, StContext& ctx, bool steal);
  // One verdict round; re-queues non-progressing survivors behind a flagged stall.
  void RunRound(StContext& ctx);
  void SampleLag(StContext& ctx);
  void MonitorPeers(uint32_t self, StContext& ctx,
                    uint64_t* last_beat, uint64_t* last_change_ns);
  // Graceful-shutdown sweep: drain all rings + flush until nothing moves.
  void FinalDrain(StContext& ctx);
  void SweepResidueToDeferred();

  ReclaimServiceConfig config_;
  uint32_t ring_mask_ = 0;
  std::unique_ptr<Ring[]> rings_;  // one per possible tid

  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  runtime::CacheAligned<std::atomic<uint64_t>> heartbeat_[kMaxReclaimers];
  std::atomic<ReclaimerState> state_[kMaxReclaimers];
  std::atomic<uint32_t> shard_owner_[kMaxReclaimers];  // shard -> reclaimer index
  std::atomic<uint32_t> reclaimer_tids_[kMaxReclaimers];
  std::atomic<uint32_t> healthy_{0};
  std::atomic<bool> backpressure_{false};
};

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_RECLAIM_SERVICE_H_
