// "Original" baseline: no reclamation at all (retired nodes leak). This is the
// paper's upper-bound configuration — the raw lock-free algorithm with no
// instrumentation and no HTM.
#ifndef STACKTRACK_SMR_LEAKY_H_
#define STACKTRACK_SMR_LEAKY_H_

#include "core/stats.h"
#include "runtime/thread_registry.h"
#include "smr/smr.h"

namespace stacktrack::smr {

struct LeakySmr {
  class Handle : public PlainHandle {
   public:
    void Retire(void*, uint64_t = 0) {}  // leaked on purpose
  };

  template <uint32_t N>
  using Frame = PlainFrame<N>;

  class Domain {
   public:
    Handle& AcquireHandle() { return handles_[runtime::CurrentThreadId()]; }

    // No counters to report: leaking is the scheme. All-zero keeps the identity
    // frees <= retires trivially true for uniform consumers.
    core::Stats Snapshot() const { return core::Stats{}; }

   private:
    Handle handles_[runtime::kMaxThreads];
  };
};

}  // namespace stacktrack::smr

#endif  // STACKTRACK_SMR_LEAKY_H_
