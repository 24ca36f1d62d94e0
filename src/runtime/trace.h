// Lock-free, per-thread event tracing (the observability layer of DESIGN.md §6).
//
// Every interesting runtime transition — segment begin/commit, abort with its
// htm::AbortCause, checkpoint split, predictor adjustment, slow-path entry, the whole
// reclamation pipeline (retire, scan begin/end, free, snapshot publish/reuse/stale,
// back-pressure raise/spill, watchdog report) — is recorded as a fixed-size
// timestamped Record in a fixed-capacity ring owned by the emitting thread. Rings are
// single-writer (the owning thread) / racy-reader (the collector), so an emit is a
// relaxed head load, three plain stores and one release head store: no CAS, no fence,
// no allocation, and no sharing between emitting threads.
//
// Cost contract (enforced by tools/check_trace_overhead.sh and bench/fig1_list):
//  * compiled out  — STACKTRACK_TRACE=OFF (no STACKTRACK_TRACE_ENABLED): Emit() is an
//    empty inline, rings do not exist, hot loops are byte-identical to a build that
//    never heard of tracing;
//  * disarmed      — compiled in, Arm(false) (the default): one relaxed atomic load
//    per emit site, <2% on fig1_list;
//  * armed         — clock_gettime(CLOCK_MONOTONIC) + ring store per event, <10% on
//    fig1_list.
//
// Wraparound overwrites the oldest record and is counted, never blocks: the ring is a
// flight recorder, not a queue. Collection (CollectMerged) is a racy snapshot meant
// for quiescent points — end of a benchmark run, between test phases.
#ifndef STACKTRACK_RUNTIME_TRACE_H_
#define STACKTRACK_RUNTIME_TRACE_H_

#include <atomic>
#include <cstdint>
#include <ctime>
#include <vector>

#include "runtime/thread_registry.h"

namespace stacktrack::runtime::trace {

// Event schema. `arg` below names the one payload word each event carries; events
// that count work (kRetire, kFree) use arg as a batch size so that the sum of args
// equals the corresponding Stats counter delta.
enum class Event : uint16_t {
  kSegmentBegin = 0,     // fast segment arm attempt, recorded before the transaction
                         // begins (an armed emit inside one would abort RTM); an
                         // aborted attempt still shows its begin. arg = split limit
  kSegmentCommit,        // final (operation-ending) commit; arg = steps executed
  kSegmentAbort,         // transactional abort; arg = htm::AbortCause code:
                         // 1 conflict, 2 capacity, 3 explicit, 4 other, and the
                         // 2PL engine's refinements 5 conflict_reader /
                         // 6 conflict_writer (htm::AbortCauseName decodes them)
  kCheckpointSplit,      // mid-operation commit at a checkpoint; arg = steps executed
  kPredictorGrow,        // per-(op,segment) limit grew; arg packs the new limit, the
                         // cell coordinates and the driving CauseFamily — see
                         // core/predictor.h PredictorTraceArg (tools/predictor_tune
                         // depends on this layout to attribute moves to cells)
  kPredictorShrink,      // per-(op,segment) limit shrank; same packed arg layout
  kSlowPathEntry,        // segment entered the software slow path; arg = split limit
  kRetire,               // nodes handed to the free set; arg = batch count
  kScanBegin,            // reclamation round entered; arg = free-set size
  kScanEnd,              // reclamation round left; arg = nodes freed this round
  kFree,                 // memory returned to the pool; arg = batch count
  kBackpressureRaise,    // scan threshold doubled; arg = new threshold
  kBackpressureSpill,    // survivors handed to DeferredFreeList; arg = accepted count
  kWatchdogReport,       // thread newly flagged as stalled; arg = its tid
  kServiceHandoff,       // reclaimer drained a hand-off ring batch; arg = batch count
  kServiceSteal,         // reclaimer drained a ring outside its shards; arg = ring tid
  kServiceFailover,      // stalled/dead reclaimer failed over; arg = reclaimer index
  kGuardSlotOverflow,    // hazard slot index out of range; arg = bad index
  kCount,
};

constexpr const char* EventName(Event e) {
  switch (e) {
    case Event::kSegmentBegin: return "segment_begin";
    case Event::kSegmentCommit: return "segment_commit";
    case Event::kSegmentAbort: return "segment_abort";
    case Event::kCheckpointSplit: return "checkpoint_split";
    case Event::kPredictorGrow: return "predictor_grow";
    case Event::kPredictorShrink: return "predictor_shrink";
    case Event::kSlowPathEntry: return "slow_path_entry";
    case Event::kRetire: return "retire";
    case Event::kScanBegin: return "scan_begin";
    case Event::kScanEnd: return "scan_end";
    case Event::kFree: return "free";
    case Event::kBackpressureRaise: return "backpressure_raise";
    case Event::kBackpressureSpill: return "backpressure_spill";
    case Event::kWatchdogReport: return "watchdog_report";
    case Event::kServiceHandoff: return "service_handoff";
    case Event::kServiceSteal: return "service_steal";
    case Event::kServiceFailover: return "service_failover";
    case Event::kGuardSlotOverflow: return "guard_slot_overflow";
    case Event::kCount: break;
  }
  return "unknown";
}

// CLOCK_MONOTONIC in nanoseconds; the one timebase every record and StatsSnapshot
// shares, so merged traces and timelines align.
inline uint64_t NowNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// One collected record, attributed to its emitting thread. Defined unconditionally so
// exporters and tools compile whether or not tracing is.
struct MergedRecord {
  uint64_t ns = 0;
  uint64_t arg = 0;
  uint32_t tid = 0;
  Event event = Event::kCount;
};

#if defined(STACKTRACK_TRACE_ENABLED)

struct Record {
  uint64_t ns;
  uint64_t arg;
  uint16_t event;
};

// Single-writer ring. head_ is a monotonic write cursor; the live window is
// [max(0, head - kCapacity), head), anything older was overwritten (== dropped).
class Ring {
 public:
  static constexpr uint32_t kCapacity = 4096;  // power of two; ~96 KiB per thread

  void Emit(Event event, uint64_t arg) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    Record& r = records_[head & (kCapacity - 1)];
    r.ns = NowNanos();
    r.arg = arg;
    r.event = static_cast<uint16_t>(event);
    // Release: a collector that observes head >= h+1 sees the record's fields.
    head_.store(head + 1, std::memory_order_release);
  }

  uint64_t head() const { return head_.load(std::memory_order_acquire); }
  uint64_t dropped() const {
    const uint64_t h = head();
    return h > kCapacity ? h - kCapacity : 0;
  }
  const Record& at(uint64_t index) const { return records_[index & (kCapacity - 1)]; }
  void Reset() { head_.store(0, std::memory_order_release); }

 private:
  std::atomic<uint64_t> head_{0};
  Record records_[kCapacity];
};

namespace internal {
Ring& RingForThread(uint32_t tid);
// Emits disarmed by unregistered threads (no tid to attribute to) — counted, dropped.
std::atomic<uint64_t>& UnattributedDrops();
}  // namespace internal

inline std::atomic<bool>& ArmedFlag() {
  static std::atomic<bool> armed{false};
  return armed;
}

// Runtime switch. Disarmed (the default) reduces every emit site to the relaxed load
// in Emit()'s guard. Arm only around the window you want recorded.
void Arm(bool on);
inline bool Armed() { return ArmedFlag().load(std::memory_order_relaxed); }

void EmitSlow(Event event, uint64_t arg);  // out of line: tid lookup + ring store

// Registers the "is the calling thread inside a transaction?" probe (the HTM layer
// does this at static-init time). EmitSlow aborts the process when the probe answers
// yes: an armed emit's clock_gettime reads the vvar page, a guaranteed RTM abort, so
// an emit site reachable between xbegin and xend would silently kill every fast-path
// segment. The soft backend tracks its transaction state portably, so the guard
// catches a misplaced site in CI even where TSX is absent.
void SetInTxProbe(bool (*probe)());

// The one call every emit site makes. Disarmed: one relaxed load, no call.
inline void Emit(Event event, uint64_t arg = 0) {
  if (Armed()) [[unlikely]] {
    EmitSlow(event, arg);
  }
}

// Records overwritten by wraparound plus events from unregistered threads, across all
// rings since the last ResetAll().
uint64_t TotalDropped();

// Racy snapshot of every thread's ring, merged and sorted by timestamp. Meant for
// quiescent points; each record is copied out and then the head is re-checked
// (seqlock order) — a copy whose slot was overwritten mid-copy may be torn and is
// discarded. Concurrent records are not guaranteed captured.
std::vector<MergedRecord> CollectMerged();

// Drops all recorded events and drop counts. Callers must ensure no thread is
// emitting concurrently (tests do this between phases).
void ResetAll();

#else  // !STACKTRACK_TRACE_ENABLED — the kill switch: every call site compiles away.

inline void Arm(bool) {}
constexpr bool Armed() { return false; }
inline void SetInTxProbe(bool (*)()) {}
inline void Emit(Event, uint64_t = 0) {}
inline uint64_t TotalDropped() { return 0; }
inline std::vector<MergedRecord> CollectMerged() { return {}; }
inline void ResetAll() {}

#endif  // STACKTRACK_TRACE_ENABLED

}  // namespace stacktrack::runtime::trace

#endif  // STACKTRACK_RUNTIME_TRACE_H_
