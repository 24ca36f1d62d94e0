#include "core/thread_context.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/free_proc.h"
#include "core/predictor.h"
#include "core/reclaim_engine.h"
#include "runtime/backoff.h"
#include "runtime/fault.h"
#include "runtime/trace.h"

namespace stacktrack::core {

namespace trace = runtime::trace;

namespace {

// Drains the htm layer's per-thread engine counters (stripe waits, eager-vs-commit
// conflict split) into this context's Stats block. Called at segment boundaries — the
// engine only touches thread-local state in between.
void FoldStmCounters(Stats& stats) {
  const htm::StmTxCounters counters = htm::ConsumeStmCounters();
  stats.stm_stripe_waits += counters.stripe_waits;
  stats.stm_eager_conflict_aborts += counters.eager_conflict_aborts;
  stats.stm_commit_conflict_aborts += counters.commit_conflict_aborts;
}

}  // namespace

// ---- RefSet --------------------------------------------------------------------

uint32_t RefSet::Add(uintptr_t value) {
  const uint32_t index = count_.load(std::memory_order_relaxed);
  if (index >= kSlots) {
    // Sticky conservative mode: ContainsRange answers "live" for everything until
    // Clear(), so not recording the value cannot unpin it for a scanner.
    overflowed_.store(true, std::memory_order_release);
    return kOverflowSlot;
  }
  slots_[index].store(value, std::memory_order_release);
  count_.store(index + 1, std::memory_order_release);
  return index;
}

void RefSet::Clear() {
  const uint32_t used = count_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < used; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_release);
  overflowed_.store(false, std::memory_order_release);
}

bool RefSet::ContainsRange(uintptr_t base, std::size_t length) const {
  if (overflowed_.load(std::memory_order_acquire)) {
    return true;
  }
  const uint32_t used = count_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < used && i < kSlots; ++i) {
    const uintptr_t value = slots_[i].load(std::memory_order_acquire);
    if (value - base < length) {
      return true;
    }
  }
  return false;
}

// ---- Globals ---------------------------------------------------------------------

ActivityArray& ActivityArray::Instance() {
  static ActivityArray array;
  return array;
}

std::atomic<uint32_t>& GlobalSlowPathCount() {
  static std::atomic<uint32_t> count{0};
  return count;
}

// ---- StContext --------------------------------------------------------------------

namespace {

// Thread-registry exit hook: an exiting thread hands its context's unreclaimed
// candidates to the global deferred list before its tid is released for reuse, so a
// dead thread never strands a free_set (the context object itself stays owned by the
// SMR domain and keeps its activity-array slot).
void ReapContextOnThreadExit(uint32_t tid) {
  StContext* ctx = ActivityArray::Instance().Get(tid);
  if (ctx != nullptr) {
    ctx->HandOffFreeSet();
  }
}

}  // namespace

StContext::StContext(uint32_t tid, const StConfig& config)
    : tid_(tid), config_(config), rng_(0x57ac57acULL ^ (uint64_t{tid} << 32)) {
  tx_retire_.reserve(64);
  free_set_.reserve(config.max_free * 2 + 16);
  scan_threshold_ = config_.max_free;
  StatsRegistry::Instance().Register(&stats);
  ActivityArray::Instance().Set(tid_, this);
  runtime::ThreadRegistry::Instance().AddExitHook(&ReapContextOnThreadExit);
}

StContext::~StContext() {
  ActivityArray::Instance().Set(tid_, nullptr);
  // Drain what liveness allows; survivors go to the deferred list for other threads
  // to reclaim (the seed leaked them, matching the paper's crashed-thread caveat).
  HandOffFreeSet();
  StatsRegistry::Instance().Deregister(&stats);
}

void StContext::RaiseScanThreshold() {
  const uint32_t cap = high_water();
  uint32_t next = scan_threshold_ * 2;
  if (next > cap) {
    next = cap;
  }
  if (next > scan_threshold_) {
    scan_threshold_ = next;
    ++stats.backpressure_raises;
    trace::Emit(trace::Event::kBackpressureRaise, next);
  }
}

void StContext::DecayScanThreshold() {
  if (scan_threshold_ > config_.max_free) {
    const uint32_t next = scan_threshold_ / 2;
    scan_threshold_ = next < config_.max_free ? config_.max_free : next;
  }
}

void StContext::HandOffFreeSet() { ReclaimEngine::DrainOnExit(*this); }

StContext::PredictorCell& StContext::CurrentCell() {
  PredictorCell& cell = predictor_[op_id_][segment_index_];
  if (cell.inited == 0) [[unlikely]] {
    cell.inited = 1;
    cell.limit = static_cast<uint16_t>(config_.initial_split_limit);
  }
  return cell;
}

void StContext::OpBegin(uint32_t op_id) {
  if (op_active_) {
    std::fprintf(stderr, "stacktrack: nested operations on one context are not supported\n");
    std::abort();
  }
  op_active_ = true;
  op_active.store(1, std::memory_order_release);
  op_id_ = op_id < kMaxOps ? op_id : kMaxOps - 1;
  segment_index_ = 0;
  attempt_fails_ = 0;
  steps_ = 0;
  op_forced_slow_ =
      config_.forced_slow_fraction > 0.0 && rng_.NextBool(config_.forced_slow_fraction);
  if (op_forced_slow_) {
    ++stats.slow_ops;
  }
}

bool StContext::PrepareSegment() {
  if (op_forced_slow_ || attempt_fails_ >= config_.slow_after_fails) {
    return false;
  }
  SaveReplayRoots();
  // Recorded before the begin point, never inside the segment: when armed,
  // EmitSlow's clock_gettime reads the vvar page, a guaranteed abort on real HTM
  // (trace.cc's in-transaction guard enforces this for every site). An attempt that
  // goes on to abort therefore still shows its segment_begin, paired with the
  // engine's segment_abort record at the resume point.
  trace::Emit(trace::Event::kSegmentBegin, CurrentCell().limit);
  return true;
}

void StContext::SegmentStarted() {
  steps_ = 0;
  limit_ = CurrentCell().limit;
}

void StContext::SlowSegmentStarted() {
  slow_segment_ = true;
  GlobalSlowPathCount().fetch_add(1, std::memory_order_acq_rel);
  steps_ = 0;
  limit_ = CurrentCell().limit;
  trace::Emit(trace::Event::kSlowPathEntry, limit_);
}

void StContext::SegmentAborted(int cause) {
  // Control arrived via the abort path (longjmp / xabort resume); no transaction is
  // active. If the abort hit mid-exposure, move the seqlock to the next even value so
  // scanners retry rather than trusting the half-written register file.
  if ((splits_seq.load(std::memory_order_relaxed) & 1) != 0) {
    splits_seq.store(splits_seq.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
  }
  RestoreReplayRoots();
  tx_retire_.clear();

  switch (cause) {
    case static_cast<int>(htm::AbortCause::kConflict):
      ++stats.aborts_conflict;
      break;
    case static_cast<int>(htm::AbortCause::kCapacity):
      ++stats.aborts_capacity;
      break;
    case static_cast<int>(htm::AbortCause::kExplicit):
      ++stats.aborts_explicit;
      break;
    default:
      ++stats.aborts_other;
      break;
  }
  FoldStmCounters(stats);

  PredictorOnAbort(CurrentCell(), cause);
  ++attempt_fails_;

  if (cause == static_cast<int>(htm::AbortCause::kConflict)) {
    runtime::ExponentialBackoff backoff(8, 256);
    for (uint32_t i = 0; i < attempt_fails_ && i < 4; ++i) {
      backoff.Pause();
    }
  }
}

void StContext::PredictorOnAbort(PredictorCell& cell, int cause) {
  // Paper §5.3: only capacity aborts count toward the shrink streak.
  cell.consec_commits = 0;
  if (cause == static_cast<int>(htm::AbortCause::kCapacity)) {
    if (++cell.consec_aborts >= config_.consec_threshold) {
      if (cell.limit > config_.min_split_limit) {
        --cell.limit;
        ++stats.predictor_decreases;
        trace::Emit(trace::Event::kPredictorShrink,
                    PredictorTraceArg(cell.limit, op_id_, segment_index_));
      }
      cell.consec_aborts = 0;
    }
  }
}

void StContext::PredictorOnCommit() {
  // Paper §5.3: a streak of commits grows the limit by one.
  PredictorCell& cell = CurrentCell();
  cell.consec_aborts = 0;
  if (++cell.consec_commits >= config_.consec_threshold) {
    if (cell.limit < config_.max_split_limit) {
      ++cell.limit;
      ++stats.predictor_increases;
      trace::Emit(trace::Event::kPredictorGrow,
                  PredictorTraceArg(cell.limit, op_id_, segment_index_));
    }
    cell.consec_commits = 0;
  }
}

void StContext::ExposeRegisters() {
  // Owner is the only writer: a load + release store avoids a locked RMW per segment.
  splits_seq.store(splits_seq.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);  // odd: exposure in flight
  // Injection: park this thread with the seqlock held odd — the adversarial case for
  // scanners, whose odd-wait must be bounded (InspectThread's conservative answer).
  runtime::fault::MaybeStall(runtime::fault::Site::kExposeStall);
  for (uint32_t i = 0; i < kRegisterSlots; ++i) {
    exposed_regs[i].store(live_regs_[i], std::memory_order_release);
  }
}

void StContext::SpliceRetires() {
  if (!tx_retire_.empty()) {
    trace::Emit(trace::Event::kRetire, tx_retire_.size());
  }
  for (void* ptr : tx_retire_) {
    free_set_.push_back(ptr);
    ++stats.retires;
  }
  tx_retire_.clear();
  NoteFreeSetSize();
}

void StContext::CommitSegment() {
  if (slow_segment_) {
    // Slow segments run directly on memory: "committing" is exposing the registers and
    // dropping the reference set, which is safe because every still-live root now sits
    // in the exposed file or a tracked frame.
    ExposeRegisters();
    splits_seq.store(splits_seq.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);  // even
    ref_set.Clear();
    if (refset_overflowed_) {
      // The set cannot absorb another slow segment; take the next one on the fast
      // path even if the operation was forced slow (the conservative regime already
      // stalls reclamation globally — staying slow would keep it stalled).
      refset_overflowed_ = false;
      op_forced_slow_ = false;
    }
    GlobalSlowPathCount().fetch_sub(1, std::memory_order_acq_rel);
    slow_segment_ = false;
    attempt_fails_ = 0;
    ++stats.segments_slow;
    SpliceRetires();
  } else {
    ExposeRegisters();
    htm::TxCommit();  // on validation failure this aborts back to the begin point
    splits_seq.store(splits_seq.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);  // even
    ++stats.segments_committed;
    stats.steps_committed += steps_;
    PredictorOnCommit();
    attempt_fails_ = 0;
    SpliceRetires();
  }
  // Reached only on success: a failed TxCommit longjmps back to the begin point.
  trace::Emit(trace::Event::kCheckpointSplit, steps_);
  if (segment_index_ + 1 < kMaxSegments) {
    ++segment_index_;
  }
}

void StContext::OpEnd() {
  if (slow_segment_) {
    ExposeRegisters();
    splits_seq.store(splits_seq.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
    ref_set.Clear();
    refset_overflowed_ = false;  // op is over; conservative regime ends with it
    GlobalSlowPathCount().fetch_sub(1, std::memory_order_acq_rel);
    slow_segment_ = false;
    ++stats.segments_slow;
    SpliceRetires();
  } else {
    // "Expose can be omitted on final commit" (Algorithm 2): the operation holds no
    // roots afterwards, so stale exposed registers only delay frees — and we clear
    // them below anyway.
    htm::TxCommit();
    ++stats.segments_committed;
    stats.steps_committed += steps_;
    PredictorOnCommit();
    SpliceRetires();
  }
  trace::Emit(trace::Event::kSegmentCommit, steps_);

  // Drop every root this operation held so an idle thread never pins memory.
  for (uint32_t i = 0; i < kRegisterSlots; ++i) {
    live_regs_[i] = 0;
    exposed_regs[i].store(0, std::memory_order_release);
  }
  oper_counter.store(oper_counter.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
  op_active.store(0, std::memory_order_release);
  ++stats.ops;
  op_active_ = false;
  op_forced_slow_ = false;
  attempt_fails_ = 0;
  FoldStmCounters(stats);

  NoteFreeSetSize();
  MaybeReclaim();
}

void StContext::Retire(void* ptr, uint64_t /*key*/) { tx_retire_.push_back(ptr); }

void StContext::Free(void* ptr) {
  free_set_.push_back(ptr);
  ++stats.retires;
  trace::Emit(trace::Event::kRetire, 1);
  NoteFreeSetSize();
  MaybeReclaim();
}

void StContext::MaybeReclaim() {
  if (free_set_.size() >= scan_threshold_) {
    ReclaimEngine::Run(*this);
  }
}

std::size_t StContext::FlushFrees() {
  // Repeat while rounds make progress. A round that frees something may adopt
  // deferred candidates for the next one; a round that frees nothing adopts nothing,
  // so the survivors returned were all decided live by the last round.
  while (!free_set_.empty()) {
    const uint64_t frees_before = stats.frees;
    ReclaimEngine::Run(*this);
    if (stats.frees == frees_before) {
      break;
    }
  }
  return free_set_.size();
}

void StContext::RegisterFrame(uintptr_t* base, uint32_t words) {
  const uint32_t index = frame_count.load(std::memory_order_relaxed);
  if (index >= kMaxFrames) {
    std::fprintf(stderr, "stacktrack: tracked frame nesting exceeds %u\n", kMaxFrames);
    std::abort();
  }
  frame_bases_[index] = base;
  frame_words_[index] = words;
  frames[index].lo.store(reinterpret_cast<uintptr_t>(base), std::memory_order_release);
  frames[index].hi.store(reinterpret_cast<uintptr_t>(base + words), std::memory_order_release);
  frame_count.store(index + 1, std::memory_order_release);
}

void StContext::DeregisterFrame(uintptr_t* base) {
  const uint32_t count = frame_count.load(std::memory_order_relaxed);
  if (count == 0 || frame_bases_[count - 1] != base) {
    std::fprintf(stderr, "stacktrack: tracked frames must be destroyed in LIFO order\n");
    std::abort();
  }
  frame_count.store(count - 1, std::memory_order_release);
  frames[count - 1].lo.store(0, std::memory_order_release);
  frames[count - 1].hi.store(0, std::memory_order_release);
}

void StContext::SaveReplayRoots() {
  std::memcpy(reg_snapshot_, live_regs_, sizeof(live_regs_));
  const uint32_t count = frame_count.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(frame_snapshot_[i], frame_bases_[i], frame_words_[i] * sizeof(uintptr_t));
  }
}

void StContext::RestoreReplayRoots() {
  std::memcpy(live_regs_, reg_snapshot_, sizeof(live_regs_));
  const uint32_t count = frame_count.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(frame_bases_[i], frame_snapshot_[i], frame_words_[i] * sizeof(uintptr_t));
  }
}

}  // namespace stacktrack::core
