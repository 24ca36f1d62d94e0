// StackTrack as an SMR policy: adapts core::StContext to the scheme-generic API so the
// data structures in src/ds/ can be instantiated with it alongside the baselines.
#ifndef STACKTRACK_SMR_STACKTRACK_SMR_H_
#define STACKTRACK_SMR_STACKTRACK_SMR_H_

#include <memory>

#include "core/stats.h"
#include "core/thread_context.h"
#include "runtime/barrier.h"
#include "runtime/thread_registry.h"
#include "smr/smr.h"

namespace stacktrack::smr {

struct StackTrackSmr {
  using Handle = core::StContext;

  template <uint32_t N>
  using Frame = core::TrackedFrame<N>;

  // Owns the per-thread contexts and registers them in the global activity array.
  // Contexts are created lazily on first AcquireHandle from each thread and stay alive
  // (scanner-safe) until the domain is destroyed. Only one StackTrack domain may be
  // active at a time — contexts claim the activity-array slot of their thread id.
  class Domain {
   public:
    explicit Domain(const core::StConfig& config = {}) : config_(config) {}

    ~Domain() = default;  // contexts flush their free buffers in ~StContext

    Handle& AcquireHandle() {
      const uint32_t tid = runtime::CurrentThreadId();
      if (contexts_[tid] == nullptr) {
        runtime::LatchGuard guard(latch_);
        if (contexts_[tid] == nullptr) {
          contexts_[tid] = std::make_unique<core::StContext>(tid, config_);
        }
      }
      return *contexts_[tid];
    }

    // Contexts register with the global StatsRegistry, so the domain-wide view is the
    // registry sum (racy totals, exact at quiescence — same contract as the baselines).
    core::Stats Snapshot() const { return core::StatsRegistry::Instance().Sum(); }

   private:
    core::StConfig config_;
    runtime::SpinLatch latch_;
    std::unique_ptr<core::StContext> contexts_[runtime::kMaxThreads];
  };
};

}  // namespace stacktrack::smr

#endif  // STACKTRACK_SMR_STACKTRACK_SMR_H_
