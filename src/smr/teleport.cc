#include "smr/teleport.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

#include "runtime/pool_alloc.h"
#include "runtime/trace.h"

namespace stacktrack::smr {

namespace trace = runtime::trace;

// ---- Handle: segment protocol --------------------------------------------------------

void TeleportSmr::Handle::OpBegin(uint32_t) {
  in_batch_ = false;
  slow_segment_ = false;
  op_forced_slow_ = false;
  limit_ = domain_->config_.batch_limit;
  steps_left_ = limit_;
  attempt_fails_ = 0;
  used_slots_ = 0;  // OpEnd's ClearRow zeroed the whole row
  // Latched per op: the engine only changes between phases, with no ops running.
  plain_loads_ = htm::ActiveBackendFast() == htm::BackendKind::kRtm ||
                 htm::ActiveStmEngineFast() == htm::StmEngine::kLazy;
  elided_pending_ = 0;
  tx_retire_.clear();
}

bool TeleportSmr::Handle::PrepareSegment() {
  if (!domain_->config_.batching || op_forced_slow_ ||
      attempt_fails_ >= domain_->config_.fallback_after) {
    return false;
  }
  SaveReplayRoots();
  // Seed the batch set from the committed capture: every root guarded at segment
  // start stays guarded in BOTH sets until its slot is individually superseded, so
  // neither an abort (active set untouched) nor a mid-batch overwrite can expose a
  // pointer the restored frame still holds.
  domain_->guards_.CopySet(tid_, active_set_, active_set_ ^ 1, used_slots_);
  // Before the begin point on purpose: an armed emit inside the transaction would
  // abort RTM (clock_gettime) and trip the soft backends' in-tx probe.
  trace::Emit(trace::Event::kSegmentBegin, limit_);
  return true;
}

void TeleportSmr::Handle::SegmentStarted() {
  in_batch_ = true;
  slow_segment_ = false;
  steps_left_ = limit_;
}

void TeleportSmr::Handle::SegmentAborted(int cause) {
  in_batch_ = false;
  RestoreReplayRoots();
  tx_retire_.clear();  // aborted unlinks roll back; their retires must too
  elided_pending_ = 0;
  ++attempt_fails_;
  switch (static_cast<htm::AbortCause>(cause)) {
    case htm::AbortCause::kConflict:
      ++counters_.aborts_conflict;
      break;
    case htm::AbortCause::kConflictReader:
      ++counters_.aborts_conflict;
      ++counters_.aborts_conflict_reader;
      break;
    case htm::AbortCause::kConflictWriter:
      ++counters_.aborts_conflict;
      ++counters_.aborts_conflict_writer;
      break;
    case htm::AbortCause::kCapacity:
      ++counters_.aborts_capacity;
      break;
    case htm::AbortCause::kExplicit:
      ++counters_.aborts_explicit;
      break;
    default:
      ++counters_.aborts_other;
      break;
  }
  trace::Emit(trace::Event::kGuardBatchAbort, static_cast<uint64_t>(cause));
}

void TeleportSmr::Handle::SlowSegmentStarted() {
  slow_segment_ = true;
  in_batch_ = false;
  // A fenced segment is plain hazard pointers: there is no validation window to
  // bound, so let it run to the end of the operation instead of paying segment
  // teardown every batch_limit checkpoints. Batching is retried at the next op
  // (OpBegin resets the abort streak).
  limit_ = UINT32_MAX;
  steps_left_ = UINT32_MAX;
  ++counters_.slow_segments;
  if (attempt_fails_ > 0) {
    ++counters_.fallbacks;  // abort-driven, as opposed to forced/disabled batching
  }
  trace::Emit(trace::Event::kSlowPathEntry, limit_);
}

void TeleportSmr::Handle::CommitSegment() {
  if (in_batch_) {
    FinishBatch();
    trace::Emit(trace::Event::kCheckpointSplit, Steps());
    return;
  }
  // Fenced segment: guards are already published and validated hop by hop; there is
  // nothing to commit. Completing one resets the abort streak so the next segment
  // retries the transactional path.
  slow_segment_ = false;
  attempt_fails_ = 0;
}

void TeleportSmr::Handle::OpEnd() {
  if (in_batch_) {
    FinishBatch();
  } else if (slow_segment_) {
    slow_segment_ = false;
    attempt_fails_ = 0;
  }
  trace::Emit(trace::Event::kSegmentCommit, Steps());
  op_forced_slow_ = false;
  // Clear both guard sets: idle threads pin nothing (hazard OpEnd contract).
  domain_->guards_.ClearRow(tid_);
  MaybeScan();
}

void TeleportSmr::Handle::FinishBatch() {
  if (htm::ActiveBackendFast() == htm::BackendKind::kSoft) {
    // Publish-before-validate. The guards went out as plain release stores; the
    // lazy engine's commit re-reads the read log to validate it. Michael's proof
    // needs every guard store seq_cst-ordered before those revalidating loads —
    // this is the per-batch fence that replaces the per-hop ones. (RTM needs no
    // fence: the whole batch, guard stores included, commits atomically. The 2PL
    // engine holds its read locks until commit, which orders publication anyway.)
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  htm::TxCommit();  // validation failure longjmps to the arm point (SegmentAborted)
  in_batch_ = false;
  active_set_ ^= 1;  // the batch capture becomes the committed capture
  attempt_fails_ = 0;
  ++counters_.batches;
  counters_.elisions += elided_pending_;
  trace::Emit(trace::Event::kGuardBatchCommit, elided_pending_);
  elided_pending_ = 0;
  SpliceRetires();
}

// ---- Handle: reclamation -------------------------------------------------------------

void TeleportSmr::Handle::Retire(void* ptr, uint64_t) {
  if (in_batch_) {
    // Deferred: the unlink that detached `ptr` is itself speculative until commit.
    // No counter bumps or emits here — we may be inside a live transaction.
    tx_retire_.push_back(ptr);
    return;
  }
  retired_.push_back(ptr);
  domain_->total_retired_.fetch_add(1, std::memory_order_relaxed);
  trace::Emit(trace::Event::kRetire, 1);
  MaybeScan();
}

void TeleportSmr::Handle::SpliceRetires() {
  if (tx_retire_.empty()) {
    return;
  }
  retired_.insert(retired_.end(), tx_retire_.begin(), tx_retire_.end());
  domain_->total_retired_.fetch_add(tx_retire_.size(), std::memory_order_relaxed);
  trace::Emit(trace::Event::kRetire, tx_retire_.size());
  tx_retire_.clear();
  MaybeScan();
}

void TeleportSmr::Handle::MaybeScan() {
  if (retired_.size() >= domain_->config_.scan_threshold) {
    domain_->Scan(retired_);
  }
}

// ---- Handle: root tracking -----------------------------------------------------------

void TeleportSmr::Handle::NoteSlotOverflow(uint32_t slot) {
  domain_->guards_.NoteOverflow(slot);
}

void TeleportSmr::Handle::RegisterFrame(uintptr_t* base, uint32_t words) {
  assert(frame_count_ < core::kMaxFrames);
  frame_bases_[frame_count_] = base;
  frame_words_[frame_count_] = words;
  ++frame_count_;
}

void TeleportSmr::Handle::DeregisterFrame(uintptr_t* base) {
  for (uint32_t i = frame_count_; i-- > 0;) {
    if (frame_bases_[i] == base) {
      for (uint32_t j = i + 1; j < frame_count_; ++j) {
        frame_bases_[j - 1] = frame_bases_[j];
        frame_words_[j - 1] = frame_words_[j];
      }
      --frame_count_;
      return;
    }
  }
}

void TeleportSmr::Handle::SaveReplayRoots() {
  std::memcpy(reg_snapshot_, regs_, sizeof(regs_));
  for (uint32_t i = 0; i < frame_count_; ++i) {
    std::memcpy(frame_snapshot_[i], frame_bases_[i],
                frame_words_[i] * sizeof(uintptr_t));
  }
}

void TeleportSmr::Handle::RestoreReplayRoots() {
  std::memcpy(regs_, reg_snapshot_, sizeof(regs_));
  for (uint32_t i = 0; i < frame_count_; ++i) {
    std::memcpy(frame_bases_[i], frame_snapshot_[i],
                frame_words_[i] * sizeof(uintptr_t));
  }
}

// ---- Domain --------------------------------------------------------------------------

TeleportSmr::Config TeleportSmr::Domain::DefaultConfig(uint32_t scan_threshold) {
  Config config;
  config.scan_threshold = scan_threshold;
  if (const char* env = std::getenv("ST_TELEPORT_BATCH");
      env != nullptr && env[0] == '0') {
    config.batching = false;
  }
  if (const char* env = std::getenv("ST_TELEPORT_LIMIT"); env != nullptr) {
    if (const int limit = std::atoi(env); limit > 0) {
      config.batch_limit = static_cast<uint32_t>(limit);
    }
  }
  return config;
}

TeleportSmr::Handle& TeleportSmr::Domain::AcquireHandle() {
  const uint32_t tid = runtime::CurrentThreadId();
  Handle& handle = handles_[tid];
  handle.domain_ = this;
  handle.tid_ = tid;
  handle.row_ = guards_.RowWords(tid);
  return handle;
}

void TeleportSmr::Domain::Scan(std::vector<void*>& retired) {
  total_scans_.fetch_add(1, std::memory_order_relaxed);
  trace::Emit(trace::Event::kScanBegin, retired.size());
  // Stage 1: snapshot every published guard — both sets of every thread, so open
  // batches and committed captures are covered alike.
  std::vector<uintptr_t> hazards;
  hazards.reserve(runtime::kMaxThreads * kSlotsPerThread * kGuardSets);
  guards_.Collect(hazards);

  // Stage 2: free retired nodes no guard points into. A batch that read the node
  // transactionally but has not yet published its guard (or published it after our
  // stage-1 snapshot) is doomed by the quarantine: its commit validation fails and
  // it rolls back to guarded roots.
  auto& pool = runtime::PoolAllocator::Instance();
  std::size_t kept = 0;
  uint64_t freed = 0;
  for (void* node : retired) {
    const uintptr_t base = reinterpret_cast<uintptr_t>(node);
    const std::size_t length = pool.UsableSize(node);
    bool live = false;
    for (const uintptr_t hazard : hazards) {
      if (hazard - base < length) {
        live = true;
        break;
      }
    }
    if (live) {
      retired[kept++] = node;
    } else {
      htm::QuarantineRange(node, length);
      pool.Free(node);
      ++freed;
    }
  }
  retired.resize(kept);
  total_freed_.fetch_add(freed, std::memory_order_relaxed);
  if (freed != 0) {
    trace::Emit(trace::Event::kFree, freed);
  }
  trace::Emit(trace::Event::kScanEnd, freed);
}

core::Stats TeleportSmr::Domain::Snapshot() const {
  core::Stats s{};
  s.retires = total_retired_.load(std::memory_order_relaxed);
  s.frees = total_freed_.load(std::memory_order_relaxed);
  s.scan_calls = total_scans_.load(std::memory_order_relaxed);
  s.guard_slot_overflows = guards_.slot_overflows();
  for (const Handle& handle : handles_) {
    const Handle::Counters& c = handle.counters_;
    s.guard_batches += c.batches;
    s.guard_elisions += c.elisions;
    s.guard_fallbacks += c.fallbacks;
    s.segments_committed += c.batches;
    s.segments_slow += c.slow_segments;
    s.aborts_conflict += c.aborts_conflict;
    s.aborts_capacity += c.aborts_capacity;
    s.aborts_explicit += c.aborts_explicit;
    s.aborts_other += c.aborts_other;
    s.aborts_conflict_reader += c.aborts_conflict_reader;
    s.aborts_conflict_writer += c.aborts_conflict_writer;
  }
  return s;
}

TeleportSmr::Domain::~Domain() {
  // Operations have completed by contract; any guard left published is stale.
  guards_.ClearAllRows();
  auto& pool = runtime::PoolAllocator::Instance();
  for (Handle& handle : handles_) {
    for (void* node : handle.retired_) {
      pool.Free(node);
    }
    handle.retired_.clear();
    for (void* node : handle.tx_retire_) {
      pool.Free(node);
    }
    handle.tx_retire_.clear();
  }
}

}  // namespace stacktrack::smr
