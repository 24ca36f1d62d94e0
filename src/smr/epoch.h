// Epoch/quiescence-based reclamation (the paper's "Epoch" baseline, after Fraser and
// Hart et al.).
//
// Each thread announces a timestamp at operation start and an idle marker at
// operation end — the cheapest possible instrumentation (one store per boundary).
// Before freeing a batch of retired nodes, the reclaimer snapshots every thread's
// announcement and *waits* until each has either gone idle, started a later operation,
// or completed more operations. That wait is the scheme's Achilles heel the paper
// highlights: one preempted thread stalls all reclamation (throughput collapses past
// the hardware-context count), and a crashed thread leaks unboundedly.
#ifndef STACKTRACK_SMR_EPOCH_H_
#define STACKTRACK_SMR_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/stats.h"
#include "runtime/cacheline.h"
#include "runtime/thread_registry.h"
#include "smr/smr.h"

namespace stacktrack::smr {

struct EpochSmr {
  struct Config {
    uint32_t batch_size = 4;  // retired nodes buffered per thread before a wait+free
  };

  class Domain;

  class Handle : public PlainHandle {
   public:
    void OpBegin(uint32_t);
    // Reclaims the limbo batch here (at the quiescent point) once it reaches the
    // batch size: waiting mid-operation could deadlock two reclaimers and would free
    // nodes the waiter itself still references.
    void OpEnd();
    void Retire(void* ptr, uint64_t key = 0);

   private:
    friend class Domain;
    Domain* domain_ = nullptr;
    uint32_t tid_ = 0;
    std::vector<void*> limbo_;
  };

  template <uint32_t N>
  using Frame = PlainFrame<N>;

  class Domain {
   public:
    Domain() : Domain(Config{}) {}
    explicit Domain(const Config& config) : config_(config) {}
    ~Domain();

    Handle& AcquireHandle();

    // Racy snapshot mapped onto the shared counter shape: ops from the per-thread
    // announcement counters, retires/frees from the domain totals.
    core::Stats Snapshot() const {
      core::Stats s{};
      s.retires = total_retired_.load(std::memory_order_relaxed);
      s.frees = total_freed_.load(std::memory_order_relaxed);
      const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
      for (uint32_t tid = 0; tid < watermark && tid < runtime::kMaxThreads; ++tid) {
        s.ops += announcements_[tid].value.ops.load(std::memory_order_relaxed);
      }
      return s;
    }

   private:
    friend class Handle;

    static constexpr uint64_t kIdle = ~uint64_t{0};

    struct Announcement {
      std::atomic<uint64_t> stamp{kIdle};  // operation-start stamp, kIdle when quiet
      std::atomic<uint64_t> ops{0};        // completed-operation counter
    };

    // Blocks until every other registered thread has passed a quiescent point since
    // the call began (gone idle, re-announced, or completed an operation).
    void WaitForQuiescence(uint32_t self_tid);

    const Config config_;
    std::atomic<uint64_t> clock_{1};
    runtime::CacheAligned<Announcement> announcements_[runtime::kMaxThreads];
    Handle handles_[runtime::kMaxThreads];
    std::atomic<uint64_t> total_retired_{0};
    std::atomic<uint64_t> total_freed_{0};
  };
};

}  // namespace stacktrack::smr

#endif  // STACKTRACK_SMR_EPOCH_H_
