// Per-thread event counters and a global aggregator.
//
// Every figure in the paper's evaluation beyond raw throughput (Figs. 3-5: abort
// taxonomy, splits per operation, split lengths, scan behaviour) is derived from these
// counters. Each StContext owns a Stats block; the registry sums live blocks so the
// benchmark harness can snapshot before/after a measured phase.
#ifndef STACKTRACK_CORE_STATS_H_
#define STACKTRACK_CORE_STATS_H_

#include <cstdint>

namespace stacktrack::core {

// Every counter, in declaration and export order: X(name) per counter. The Stats
// members, operator+= / operator-= and the exporters' name table
// (core/stats_export.cc) are all generated from this one list.
#define STACKTRACK_STATS_FIELDS(X)                                                        \
  /* Operation / segment life cycle. */                                                   \
  X(ops)                                                                                  \
  X(segments_committed)         /* fast-path segment commits */                           \
  X(segments_slow)              /* segments executed on the software slow path */         \
  X(steps_committed)            /* basic blocks inside committed segments */              \
  /* Abort taxonomy (counted per failed fast-path attempt). */                            \
  X(aborts_conflict)                                                                      \
  X(aborts_capacity)                                                                      \
  X(aborts_explicit)                                                                      \
  X(aborts_other)                                                                         \
  /* Software-engine internals, drained from htm::ConsumeStmCounters() at segment         \
     boundaries. Waits count spins against a held stripe; the eager/commit split          \
     locates where conflict aborts were raised. */                                        \
  X(stm_stripe_waits)                                                                     \
  X(stm_eager_conflict_aborts)                                                            \
  X(stm_commit_conflict_aborts)                                                           \
  /* Split-length predictor moves (the §5.3 streak rule; see core/predictor.h). */        \
  X(predictor_increases)                                                                  \
  X(predictor_decreases)                                                                  \
  /* Reclamation. */                                                                      \
  X(retires)                                                                              \
  X(frees)                                                                                \
  X(scan_calls)                 /* scan_and_free invocations */                           \
  X(scan_thread_inspects)       /* per-thread inspections performed */                    \
  X(scan_restarts)              /* splits-counter inconsistency retries */                \
  X(scan_words)                 /* stack/register words compared */                       \
  X(scan_hits)                  /* candidates kept alive by a found reference */          \
  X(stale_free_drops)           /* free-set entries already freed elsewhere (guard) */    \
  /* Slow path. */                                                                        \
  X(slow_reads)                                                                           \
  X(slow_read_retries)                                                                    \
  X(slow_ops)                   /* operations forced entirely onto the slow path */       \
  /* Robustness: bounded-retry, back-pressure, and fault-recovery actions. Counters       \
     for the injected faults themselves live in runtime/fault.h (per-site fire            \
     counts); these record how the reclamation layers recovered. */                       \
  X(scan_retry_capped)          /* inspections that hit the retry cap -> "live" */        \
  X(backpressure_raises)        /* adaptive scan-threshold increases */                   \
  X(backpressure_spills)        /* survivors spilled to the global deferred list */       \
  X(deferred_adopted)           /* deferred candidates adopted by a later scan */         \
  X(exit_handoffs)              /* candidates handed off by an exiting thread */          \
  X(refset_overflows)           /* sticky RefSet overflows (conservative mode) */         \
  X(watchdog_reports)           /* threads newly flagged as stalled mid-operation */      \
  X(free_set_peak)              /* per-thread max free_set size (sums as a bound) */      \
  /* Hashed-scan root tables (core/reclaim_engine.h). Tables are private to one           \
     round and never shared, so snapshot_reuses is always 0; it stays because the         \
     repository benchmark reports it as core.snapshot_reuse_ratio. */                     \
  X(snapshot_reuses)                                                                      \
  X(snapshot_incomplete)        /* hashed rounds whose table could not prove absence */   \
  /* Hazard pointers (smr/hazard.h): a nonzero value means some traversal indexed past     \
     its slot budget (protocol break). */                                                 \
  X(guard_slot_overflows)       /* guard-slot indexes clamped out of range (sticky) */

struct Stats {
#define STACKTRACK_STATS_MEMBER(name) uint64_t name = 0;
  STACKTRACK_STATS_FIELDS(STACKTRACK_STATS_MEMBER)
#undef STACKTRACK_STATS_MEMBER

  Stats& operator+=(const Stats& other) {
#define STACKTRACK_STATS_ADD(name) name += other.name;
    STACKTRACK_STATS_FIELDS(STACKTRACK_STATS_ADD)
#undef STACKTRACK_STATS_ADD
    return *this;
  }

  // Counters only grow, so `after -= before` isolates a measurement window.
  Stats& operator-=(const Stats& other) {
#define STACKTRACK_STATS_SUB(name) name -= other.name;
    STACKTRACK_STATS_FIELDS(STACKTRACK_STATS_SUB)
#undef STACKTRACK_STATS_SUB
    return *this;
  }

  double AvgSplitsPerOp() const {
    const uint64_t segments = segments_committed + segments_slow;
    return ops == 0 ? 0.0 : static_cast<double>(segments) / static_cast<double>(ops);
  }

  double AvgSplitLength() const {
    return segments_committed == 0
               ? 0.0
               : static_cast<double>(steps_committed) / static_cast<double>(segments_committed);
  }

  uint64_t TotalAborts() const {
    return aborts_conflict + aborts_capacity + aborts_explicit + aborts_other;
  }
};

// Tracks all live per-thread Stats blocks. Threads register at context creation and
// fold their counters into a retired total at destruction, so sums never lose events.
// runtime's PoolAllocator uses the same register/fold-on-exit discipline for its
// per-thread allocation tallies (it cannot depend on this class — core sits above
// runtime in the layering).
class StatsRegistry {
 public:
  static StatsRegistry& Instance();

  void Register(Stats* stats);
  void Deregister(Stats* stats);  // folds *stats into the retired total

  // Sum over retired totals plus all live blocks (racy snapshot, fine for reporting).
  Stats Sum() const;

 private:
  StatsRegistry() = default;
};

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_STATS_H_
