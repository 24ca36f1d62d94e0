// Per-thread event counters of the software engine.
//
// StmTxCounters is a thread-local accumulator of engine-internal events (stripe waits,
// where aborts were detected) that the split engine folds into core::Stats at segment
// boundaries via htm::ConsumeStmCounters() — the engine itself never sees core::Stats,
// keeping the htm → runtime layering intact.
#ifndef STACKTRACK_HTM_STM_STATS_H_
#define STACKTRACK_HTM_STM_STATS_H_

#include <cstdint>

namespace stacktrack::htm {

// Engine-internal event counts since the last ConsumeStmCounters() drain.
struct StmTxCounters {
  uint64_t stripe_waits = 0;        // spins against a held stripe before resolution
  uint64_t eager_conflict_aborts = 0;   // conflict aborts raised at the access site
  uint64_t commit_conflict_aborts = 0;  // conflict aborts raised at commit time
};

namespace internal {
inline constinit thread_local StmTxCounters tls_stm_counters;
}  // namespace internal

inline StmTxCounters& CurrentStmCounters() { return internal::tls_stm_counters; }

// Returns the counters accumulated since the previous call and zeroes them.
inline StmTxCounters ConsumeStmCounters() {
  StmTxCounters out = internal::tls_stm_counters;
  internal::tls_stm_counters = StmTxCounters{};
  return out;
}

}  // namespace stacktrack::htm

#endif  // STACKTRACK_HTM_STM_STATS_H_
