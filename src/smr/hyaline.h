// Hyaline-style reference-counted reclamation (after Nikolaev and Ravindran's
// Hyaline, adapted to this repo's SMR surface as the robust snapshot-free baseline).
//
// Where the epoch baseline *waits* for every peer to pass a quiescent point before
// freeing a batch (smr/epoch.h — one preempted thread stalls all reclamation),
// Hyaline never waits and never scans: retired nodes are published in batches into a
// global retirement registry whose shared word carries the count of threads currently
// inside an operation. A batch's reference count is seeded with that count at
// insertion; every thread leaving its operation drops one reference from each batch
// inserted while it was active, and whoever drops the last reference frees the batch.
// Reclamation is distributed across the leaving threads — there is no reclaimer role,
// no per-thread snapshot, and no O(threads) scan.
//
// Adaptation note: classic Hyaline-1 threads batches onto a lock-free list and stops
// each leave-time walk at the node that was the head at enter time, compared by
// address. Freed nodes stay linked, so the stop marker can be reclaimed and its
// address reused by a batch inserted inside the window — the walk then stops early
// and the skipped batches leak (with a general-purpose allocator recycling control
// blocks this is the common case, not a corner). This implementation replaces the
// pointer marker with insertion eras: the shared word packs {active count : 16 |
// insertion era : 48}, so one fetch_add gives a thread its entry era atomically with
// its count increment, and a leave walks exactly the batches born in (entry, leave].
// The registry itself is a short latched doubly-linked list (insert, walk, unlink);
// the latch is never held across allocation, freeing, or a fault point, so the
// critical section is a bounded pointer walk.
//
// Robustness contract (measured by bench/robustness_lag.cc, documented in README):
//  * A thread stalled or killed OUTSIDE an operation delays nothing: it holds no
//    count on the shared word, so batches retire and free at full speed around it.
//  * A thread stalled INSIDE an operation blocks only the batches inserted during its
//    stall window (each carries the stalled thread's +1). Lag grows with the retire
//    rate for the duration of the stall and drains completely once the thread
//    resumes — bounded garbage for bounded stalls, with no watchdog needed.
//  * A thread KILLED inside an operation never drops its references: batches inserted
//    from that point on leak. This is the documented gap between plain Hyaline and
//    the birth-era variant (Hyaline-S), and it is the contrast that motivates
//    StackTrack's scan-based verdicts — StackTrack's inline rounds reclaim past a
//    dead thread because liveness is derived from the victim's stack, not its
//    cooperation.
#ifndef STACKTRACK_SMR_HYALINE_H_
#define STACKTRACK_SMR_HYALINE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/stats.h"
#include "runtime/barrier.h"
#include "runtime/cacheline.h"
#include "runtime/thread_registry.h"
#include "smr/smr.h"

namespace stacktrack::smr {

struct HyalineSmr {
  static constexpr uint32_t kBatchSize = 8;  // retired nodes per inserted batch

  class Domain;

  class Handle : public PlainHandle {
   public:
    void OpBegin(uint32_t);  // enter: count +1, capture the entry era
    void OpEnd();            // leave: count -1, drop refs from in-window batches
    void Retire(void* ptr, uint64_t key = 0);

   private:
    friend class Domain;
    Domain* domain_ = nullptr;
    uint32_t tid_ = 0;
    std::vector<void*> pending_;  // nodes accumulating toward the next batch
    uint64_t entry_era_ = 0;      // insertion era at OpBegin
  };

  template <uint32_t N>
  using Frame = PlainFrame<N>;

  class Domain {
   public:
    ~Domain();

    Handle& AcquireHandle();

    // Racy snapshot mapped onto the shared counter shape, like the other schemes.
    core::Stats Snapshot() const {
      core::Stats s{};
      s.retires = total_retired_.load(std::memory_order_relaxed);
      s.frees = total_freed_.load(std::memory_order_relaxed);
      const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
      for (uint32_t tid = 0; tid < watermark && tid < runtime::kMaxThreads; ++tid) {
        s.ops += ops_[tid].value.load(std::memory_order_relaxed);
      }
      return s;
    }

   private:
    friend class Handle;

    // One inserted batch: registry links (latched, born-descending), the insertion
    // era, and the shared reference count that decides when its nodes die.
    struct Batch {
      std::atomic<int64_t> refs{0};
      uint64_t born = 0;
      Batch* next = nullptr;
      Batch* prev = nullptr;
      std::vector<void*> nodes;
    };

    // word_ packs {active-thread count : 16 | insertion era : 48} so enter/leave can
    // adjust the count and read the era in ONE atomic op — the pair must be mutually
    // consistent or a leaver could owe (or skip) a batch that never counted it
    // (or did). 48 era bits outlast any run; insert bumps the era by 1, so the count
    // bits are disturbed only after 2^48 insertions.
    static constexpr uint32_t kRefShift = 48;
    static constexpr uint64_t kRefUnit = 1ull << kRefShift;
    static constexpr uint64_t kEraMask = kRefUnit - 1;

    void Insert(Batch* batch);  // registry link + seed refs with the packed count
    // Drops one reference from every batch with born in (entry, leave]; frees the
    // zero crossers. The latch is released before any node is freed.
    void LeaveWalk(uint64_t entry_era, uint64_t leave_era);
    void FreeBatch(Batch* batch);     // unlink under latch, then release
    void ReleaseBatch(Batch* batch);  // free nodes + control block (no latch)

    std::atomic<uint64_t> word_{0};
    runtime::SpinLatch latch_;
    Batch* registry_head_ = nullptr;  // newest (highest born) first
    runtime::CacheAligned<std::atomic<uint64_t>> ops_[runtime::kMaxThreads];
    Handle handles_[runtime::kMaxThreads];
    std::atomic<uint64_t> total_retired_{0};
    std::atomic<uint64_t> total_freed_{0};
  };
};

}  // namespace stacktrack::smr

#endif  // STACKTRACK_SMR_HYALINE_H_
