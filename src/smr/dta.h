// Drop-the-Anchor (Braginsky, Kogan, Petrank — SPAA'13), the paper's list-only
// baseline.
//
// Threads publish a timestamp per operation and an *anchor* once every
// `anchor_interval` traversal hops (AnchorHop), instead of a fence per hop like hazard
// pointers — that elision is the scheme's entire performance story. A retired node can
// be freed once every thread either (a) is idle, (b) started its current operation
// after the node was retired (the node was already unreachable, so that thread can
// never hold it), or (c) has anchored past it (the anchor key lower-bounds every key
// the thread still holds, because list traversals only move forward).
//
// Freezing substitute: the original recovers from stalled threads by freezing and
// rebuilding the K-node window, which is specific to their list internals. Here a node
// still pinned `stall_deadline_ns` after the first scan that found it pinned moves to
// its handle's quarantine, which only domain teardown frees, so reclamation of
// everything else stays non-blocking. The deadline is a time, not a scan count: a
// busy system scans often, and a count would mistake it for a stalled one. DESIGN.md
// documents this substitution.
#ifndef STACKTRACK_SMR_DTA_H_
#define STACKTRACK_SMR_DTA_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/stats.h"
#include "runtime/cacheline.h"
#include "runtime/thread_registry.h"
#include "smr/smr.h"

namespace stacktrack::smr {

struct DtaSmr {
  struct Config {
    uint32_t anchor_interval = 64;  // traversal hops between published anchors
    uint32_t batch_size = 128;      // retired nodes buffered per thread before a scan
    // A node pinned this long is quarantined; the stall watchdog's deadline
    // (core::StConfig::watchdog_deadline_ns).
    uint64_t stall_deadline_ns = 50'000'000;
  };

  class Domain;

  class Handle : public PlainHandle {
   public:
    void OpBegin(uint32_t);
    void OpEnd();

    // Traversal hook: called once per node visited with that node's key. Publishes a
    // new anchor (with the fence) every `anchor_interval` hops.
    void AnchorHop(uint64_t key);

    // `key` is the retired node's key, needed for the anchor comparison.
    void Retire(void* ptr, uint64_t key = 0);

   private:
    friend class Domain;
    Domain* domain_ = nullptr;
    uint32_t tid_ = 0;
    uint32_t hops_ = 0;

    struct Retired {
      void* ptr;
      uint64_t key;
      uint64_t stamp;
      uint64_t pinned_since_ns;  // first scan that found it pinned; 0 before
    };
    std::vector<Retired> retired_;
    std::vector<void*> quarantine_;  // freed only by ~Domain
  };

  template <uint32_t N>
  using Frame = PlainFrame<N>;

  class Domain {
   public:
    Domain() : Domain(Config{}) {}
    explicit Domain(const Config& config) : config_(config) {}
    ~Domain();

    Handle& AcquireHandle();

    core::Stats Snapshot() const {
      core::Stats s{};
      s.retires = total_retired_.load(std::memory_order_relaxed);
      s.frees = total_freed_.load(std::memory_order_relaxed);
      // Quarantined nodes are withheld from the pool until teardown — the same
      // "candidate parked, not freed" role stale_free_drops plays for StackTrack.
      s.stale_free_drops = total_quarantined_.load(std::memory_order_relaxed);
      return s;
    }

   private:
    friend class Handle;

    static constexpr uint64_t kIdle = ~uint64_t{0};

    struct Announcement {
      std::atomic<uint64_t> stamp{kIdle};       // op-start stamp; kIdle when quiet
      std::atomic<uint64_t> anchor_key{0};      // lower bound on keys still held
    };

    void Scan(Handle& handle);

    const Config config_;
    std::atomic<uint64_t> clock_{1};
    runtime::CacheAligned<Announcement> announcements_[runtime::kMaxThreads];
    Handle handles_[runtime::kMaxThreads];
    std::atomic<uint64_t> total_retired_{0};
    std::atomic<uint64_t> total_freed_{0};
    std::atomic<uint64_t> total_quarantined_{0};
  };
};

}  // namespace stacktrack::smr

#endif  // STACKTRACK_SMR_DTA_H_
