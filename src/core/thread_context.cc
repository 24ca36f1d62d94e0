#include "core/thread_context.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <mutex>

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
    // The context object survives (the SMR domain owns it), but its thread is gone:
    // fold what it learned into the shared warm table so the tid's successor inherits.
    ctx->PublishPredictorTable();
  }
}

// StConfig::warm_start_path loader, once per distinct path: every context of a domain
// carries the same config, and re-parsing the table per thread would be waste.
void MaybeLoadWarmStart(const std::string& path) {
  if (path.empty()) {
    return;
  }
  static std::mutex mutex;
  static std::string loaded_path;
  std::lock_guard<std::mutex> lock(mutex);
  if (path == loaded_path && PredictorWarmTable::Instance().loaded()) {
    return;
  }
  std::string error;
  if (PredictorWarmTable::Instance().LoadFromFile(path, &error)) {
    loaded_path = path;
  } else {
    std::fprintf(stderr, "stacktrack: warm_start_path %s failed to load: %s\n",
                 path.c_str(), error.c_str());
  }
}

}  // namespace

StContext::StContext(uint32_t tid, const StConfig& config)
    : tid_(tid), config_(config), rng_(0x57ac57acULL ^ (uint64_t{tid} << 32)) {
  tx_retire_.reserve(64);
  free_set_.reserve(config.max_free * 2 + 16);
  scan_threshold_ = config_.max_free;
  MaybeLoadWarmStart(config_.warm_start_path);
  StatsRegistry::Instance().Register(&stats);
  ActivityArray::Instance().Set(tid_, this);
  runtime::ThreadRegistry::Instance().AddExitHook(&ReapContextOnThreadExit);
}

StContext::~StContext() {
  PublishPredictorTable();
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
    // Warm start: inherit a seed published by an earlier context or loaded from a
    // tuned table. Seed() is one relaxed load when the table is empty, so the streak
    // default pays nothing here.
    if (uint16_t seed = PredictorWarmTable::Instance().Seed(op_id_, segment_index_);
        seed != 0) {
      uint32_t clamped = seed;
      if (clamped < config_.min_split_limit) {
        clamped = config_.min_split_limit;
      } else if (clamped > config_.max_split_limit) {
        clamped = config_.max_split_limit;
      }
      if (clamped != 0) {
        cell.limit = static_cast<uint16_t>(clamped);
        ++stats.predictor_warm_seeds;
      }
    }
  }
  return cell;
}

void StContext::PublishPredictorTable() {
  // Online inheritance is a cost-model feature; the streak predictor must stay
  // byte-for-byte the paper's per-thread behavior.
  if (ActivePredictorFast() != PredictorKind::kCost) {
    return;
  }
  PredictorWarmTable& table = PredictorWarmTable::Instance();
  for (uint32_t op = 0; op < kMaxOps; ++op) {
    for (uint32_t seg = 0; seg < kMaxSegments; ++seg) {
      const PredictorCell& cell = predictor_[op][seg];
      if (cell.inited != 0 && cell.limit != 0) {
        table.Publish(op, seg, cell.limit);
        ++stats.predictor_warm_publishes;
      }
    }
  }
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
  // Recorded before the begin point, never between xbegin and xend: when armed,
  // EmitSlow's clock_gettime reads the vvar page, a guaranteed RTM abort (trace.cc's
  // in-transaction guard enforces this for every site). An attempt that goes on to
  // abort therefore still shows its segment_begin, paired with the backend's
  // segment_abort record at the resume point.
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
  if (ActivePredictorFast() == PredictorKind::kStreak) {
    // Paper §5.3, unchanged: only capacity aborts count toward the shrink streak.
    cell.consec_commits = 0;
    if (cause == static_cast<int>(htm::AbortCause::kCapacity)) {
      if (++cell.consec_aborts >= config_.consec_threshold) {
        if (cell.limit > config_.min_split_limit) {
          --cell.limit;
          ++stats.predictor_decreases;
          trace::Emit(trace::Event::kPredictorShrink,
                      PredictorTraceArg(cell.limit, op_id_, segment_index_,
                                        CauseFamily::kCapacity));
        }
        cell.consec_aborts = 0;
      }
    }
    return;
  }

  // Cost model. Each family's EWMA tracks "fraction of recent attempts this family
  // aborted"; the sampled family moves toward 1, the other toward 0, explicit and
  // spurious aborts move nothing (they carry no footprint or contention signal).
  const CauseFamily family = CauseFamilyOf(cause);
  if (family == CauseFamily::kIgnored) {
    return;
  }
  const PredictorBands& bands = ActivePredictorBands();
  if (family == CauseFamily::kCapacity) {
    cell.ewma_capacity += static_cast<uint16_t>(
        (kPredictorEwmaOne - cell.ewma_capacity) >> kPredictorEwmaShift);
    cell.ewma_conflict -= static_cast<uint16_t>(cell.ewma_conflict >> kPredictorEwmaShift);
    // Capacity is deterministic at a given footprint: remember the lowest limit that
    // overflowed so growth never climbs back across the cliff.
    if (cell.cap_ceiling == 0 || cell.limit < cell.cap_ceiling) {
      cell.cap_ceiling = cell.limit;
    }
    if (cell.ewma_capacity >= bands.capacity_shrink &&
        cell.limit > config_.min_split_limit) {
      // Multiplicative shrink: a quarter of the limit per decision reaches the
      // sub-cliff operating point in a handful of aborts instead of the streak
      // rule's one-per-5.
      const uint32_t step = cell.limit >> 2 != 0 ? cell.limit >> 2 : 1;
      const uint32_t floor = config_.min_split_limit != 0 ? config_.min_split_limit : 0;
      cell.limit = static_cast<uint16_t>(
          cell.limit - step > floor ? cell.limit - step : floor);
      // Hysteresis: halve the evidence (it described the old limit) and hold growth
      // for a few commits so the new point shows its own abort rate first.
      cell.ewma_capacity = static_cast<uint16_t>(cell.ewma_capacity >> 1);
      cell.cooldown = static_cast<uint8_t>(bands.cooldown < 255 ? bands.cooldown : 255);
      ++stats.predictor_decreases;
      trace::Emit(trace::Event::kPredictorShrink,
                  PredictorTraceArg(cell.limit, op_id_, segment_index_,
                                    CauseFamily::kCapacity));
    }
  } else {  // conflict family
    cell.ewma_conflict += static_cast<uint16_t>(
        (kPredictorEwmaOne - cell.ewma_conflict) >> kPredictorEwmaShift);
    cell.ewma_capacity -= static_cast<uint16_t>(cell.ewma_capacity >> kPredictorEwmaShift);
    if (cell.ewma_conflict >= bands.conflict_shrink &&
        cell.limit > config_.min_split_limit) {
      // Gentle: contention is transient, so give up one block at a time and let the
      // fast-recovery growth below win it back once the EWMA decays.
      --cell.limit;
      cell.ewma_conflict = static_cast<uint16_t>(cell.ewma_conflict >> 1);
      cell.cooldown = static_cast<uint8_t>(bands.cooldown < 255 ? bands.cooldown : 255);
      ++stats.predictor_decreases;
      trace::Emit(trace::Event::kPredictorShrink,
                  PredictorTraceArg(cell.limit, op_id_, segment_index_,
                                    CauseFamily::kConflict));
    }
  }
}

void StContext::PredictorOnCommit() {
  PredictorCell& cell = CurrentCell();
  if (ActivePredictorFast() == PredictorKind::kStreak) {
    // Paper §5.3, unchanged: a streak of commits grows the limit by one.
    cell.consec_aborts = 0;
    if (++cell.consec_commits >= config_.consec_threshold) {
      if (cell.limit < config_.max_split_limit) {
        ++cell.limit;
        ++stats.predictor_increases;
        trace::Emit(trace::Event::kPredictorGrow,
                    PredictorTraceArg(cell.limit, op_id_, segment_index_,
                                      CauseFamily::kCommit));
      }
      cell.consec_commits = 0;
    }
    return;
  }

  // Cost model: a commit is a zero sample for both abort-rate EWMAs.
  cell.ewma_capacity -= static_cast<uint16_t>(cell.ewma_capacity >> kPredictorEwmaShift);
  cell.ewma_conflict -= static_cast<uint16_t>(cell.ewma_conflict >> kPredictorEwmaShift);
  if (cell.cooldown != 0) {
    --cell.cooldown;
    return;
  }
  const PredictorBands& bands = ActivePredictorBands();
  if (cell.ewma_capacity > bands.grow || cell.ewma_conflict > bands.grow) {
    return;  // inside the dead band: neither shrink nor grow
  }
  uint32_t ceiling = config_.max_split_limit;
  if (cell.cap_ceiling != 0 && cell.cap_ceiling - 1u < ceiling) {
    ceiling = cell.cap_ceiling - 1u;  // stay strictly under the remembered cliff
  }
  if (cell.limit >= ceiling) {
    return;
  }
  // Conflict pressure recovers fast (geometric steps back up once contention
  // cleared); in a capacity-bounded regime growth creeps by single blocks so a
  // drifting footprint is probed gently.
  const bool conflict_regime = cell.ewma_conflict >= cell.ewma_capacity;
  const uint32_t step = conflict_regime ? 1 + (cell.limit >> 3) : 1;
  uint32_t next = cell.limit + step;
  if (next > ceiling) {
    next = ceiling;
  }
  cell.limit = static_cast<uint16_t>(next);
  cell.cooldown = static_cast<uint8_t>(bands.cooldown < 255 ? bands.cooldown : 255);
  ++stats.predictor_increases;
  trace::Emit(trace::Event::kPredictorGrow,
              PredictorTraceArg(cell.limit, op_id_, segment_index_,
                                CauseFamily::kCommit));
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
