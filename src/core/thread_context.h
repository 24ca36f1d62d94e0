// StackTrack per-thread context and split-segment engine (paper §5.1-§5.4).
//
// One StContext exists per registered thread. It owns:
//  * the scanner-visible state: a seqlock-encoded splits counter, the operation
//    counter, the exposed shadow register file, the tracked stack-frame table, and the
//    slow-path reference set — everything Algorithm 1's SCAN_AND_FREE inspects;
//  * the private split-engine state: current op id / segment index / step budget, the
//    per-(op, segment) length-predictor table, root snapshots for software-HTM
//    rollback, and the retire/free buffers.
//
// Root-tracking contract (replaces the paper's compiler pass):
//  * Every local that may hold a shared-node pointer lives either in a TrackedFrame
//    slot (word-scanned raw, like the paper's stack frames) or in a register slot
//    (private while the segment runs, copied to the exposed file at each segment
//    commit, exactly like EXPOSE_REGISTERS in Algorithm 2).
//  * Checkpoint macros must be expanded lexically inside the operation's own stack
//    frame (the paper's pass runs post-inlining and has the same property): the
//    transaction begin point must outlive the segment.
#ifndef STACKTRACK_CORE_THREAD_CONTEXT_H_
#define STACKTRACK_CORE_THREAD_CONTEXT_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/predictor.h"
#include "core/stats.h"
#include "htm/htm.h"
#include "runtime/rand.h"
#include "runtime/thread_registry.h"

namespace stacktrack::core {

inline constexpr uint32_t kRegisterSlots = 12;  // shadow register file width
inline constexpr uint32_t kMaxFrames = 6;       // simultaneously tracked frames
inline constexpr uint32_t kMaxFrameWords = 48;  // words per tracked frame (skip-list preds+succs)
// kMaxOps / kMaxSegments (predictor table geometry) live in core/predictor.h.

struct StConfig {
  uint32_t initial_split_limit = 50;  // basic blocks per segment at start (§5.3)
  uint32_t min_split_limit = 1;
  uint32_t max_split_limit = 400;
  uint32_t consec_threshold = 5;      // aborts/commits in a row before +-1
  uint32_t max_free = 32;             // free_set size that triggers scan_and_free
  uint32_t slow_after_fails = 24;     // consecutive segment failures before slow path
  double forced_slow_fraction = 0.0;  // Fig. 5: fraction of ops forced onto slow path
  bool scan_refsets_always = false;   // test hook: scan refsets even with counter == 0
  bool hashed_scan = true;            // §5.2 root table: one sweep per thread per round;
                                      // false = Algorithm 1's per-candidate round
  // Robustness knobs (see DESIGN.md "Failure model & fault injection").
  uint32_t inspect_retry_cap = 64;    // splits-counter retries before conservative "live"
  uint32_t free_highwater_mult = 4;   // back-pressure high water = mult * max_free
  uint64_t watchdog_deadline_ns = 50'000'000;  // one operation in flight this long,
                                               // as seen by rounds -> thread reported
};

// Slow-path reference set (Algorithm 5). Owner appends/tombstones; scanners read
// concurrently. Entries are never compacted mid-operation so a scanner can never miss
// a live reference; Clear() happens only after the segment's roots were exposed.
//
// Overflow is a sticky state, not a process abort: once full, Add() returns
// kOverflowSlot and the set answers every ContainsRange query "yes" until Clear().
// That is the conservative direction (scanners keep all candidates alive), so safety
// is preserved while the owner finishes the segment and retries on the fast path.
class RefSet {
 public:
  static constexpr uint32_t kSlots = 16384;
  static constexpr uint32_t kOverflowSlot = ~0u;

  // Returns the slot used, or kOverflowSlot when the set is full (sticky until
  // Clear(); the value is NOT recorded, which ContainsRange compensates for by
  // answering conservatively).
  uint32_t Add(uintptr_t value);
  void Tombstone(uint32_t slot) {
    if (slot < kSlots) {
      slots_[slot].store(0, std::memory_order_release);
    }
  }
  void Clear();

  // Scanner: does any recorded value point into [base, base + length)? Always true
  // while the set is in the overflowed state.
  bool ContainsRange(uintptr_t base, std::size_t length) const;

  bool overflowed() const { return overflowed_.load(std::memory_order_acquire); }

  uint32_t size() const { return count_.load(std::memory_order_acquire); }
  uintptr_t slot(uint32_t index) const { return slots_[index].load(std::memory_order_acquire); }

 private:
  std::atomic<uint32_t> count_{0};
  std::atomic<bool> overflowed_{false};
  std::atomic<uintptr_t> slots_[kSlots] = {};
};

class StContext;

// Typed view of one root word (frame slot or register slot).
template <typename T>
class RootRef {
 public:
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  explicit RootRef(uintptr_t* word) : word_(word) {}

  T get() const { return std::bit_cast<T>(*word_); }
  operator T() const { return get(); }
  RootRef& operator=(T value) {
    *word_ = std::bit_cast<uintptr_t>(value);
    return *this;
  }
  T operator->() const requires std::is_pointer_v<T> { return get(); }

 private:
  uintptr_t* word_;
};

// A tracked stack frame: N words of root storage physically on the operation's stack,
// registered with the context so SCAN_AND_FREE can inspect them word-by-word
// (IS_IN_STACK, Algorithm 1).
template <uint32_t N>
class TrackedFrame {
  static_assert(N <= kMaxFrameWords);

 public:
  explicit TrackedFrame(StContext& ctx);
  ~TrackedFrame();
  TrackedFrame(const TrackedFrame&) = delete;
  TrackedFrame& operator=(const TrackedFrame&) = delete;

  template <typename T>
  RootRef<T> ptr(uint32_t index) {
    return RootRef<T>(&words[index]);
  }

  uintptr_t words[N] = {};

 private:
  StContext& ctx_;
};

class StContext {
 public:
  // StContext doubles as the StackTrack per-thread SMR handle (see smr/smr.h).
  static constexpr bool kSplits = true;

  StContext(uint32_t tid, const StConfig& config);
  ~StContext();
  StContext(const StContext&) = delete;
  StContext& operator=(const StContext&) = delete;

  // ---- Operation life cycle (driven by the SMR macros) ----------------------------
  void OpBegin(uint32_t op_id);
  // True -> attempt a fast (transactional) segment; the engine has snapshotted the
  // roots for rollback. False -> run the next segment on the software slow path.
  bool PrepareSegment();
  void SegmentStarted();
  void SegmentAborted(int cause);
  void SlowSegmentStarted();
  bool CheckpointHit() { return ++steps_ >= limit_; }
  void CommitSegment();  // mid-operation commit (expose + advance to next segment)
  void OpEnd();          // final commit, register clear, oper_counter bump, free batch

  bool in_slow_segment() const { return slow_segment_; }

  // Runs every remaining segment of the current operation on the software slow path.
  // smr::OpScope calls this right after OpBegin: an RAII entry point cannot host a
  // transactional begin point (setjmp/xbegin must be expanded in a frame that
  // outlives the segment — see core/split_engine.h), and the slow path is the one
  // segment flavour that needs no begin point. Shares the forced-slow machinery of
  // StConfig::forced_slow_fraction, including its slow_ops accounting.
  void ForceSlowSegments() {
    if (!op_forced_slow_) {
      op_forced_slow_ = true;
      ++stats.slow_ops;
    }
  }

  // ---- Instrumented shared-memory access -------------------------------------------
  // Load (and Protect, which is a Load) is forced inline so that a transactional read
  // inside an operation body is the htm layer's straight-line fast path; the
  // slow-path segment's SlowLoad stays out of line.
  template <typename T>
  [[gnu::always_inline]] T Load(const std::atomic<T>& src) {
    if (slow_segment_) [[unlikely]] {
      return SlowLoad(src);
    }
    return htm::TxLoad(src);
  }

  template <typename T>
  void Store(std::atomic<T>& dst, T value) {
    if (slow_segment_) {
      SlowLoad(dst);  // record the location, then write directly (Algorithm 5)
      htm::SafeStore(dst, value);
      return;
    }
    htm::TxStore(dst, value);
  }

  template <typename T>
  bool Cas(std::atomic<T>& dst, T expected, T desired) {
    if (slow_segment_) {
      if (SlowLoad(dst) != expected) {
        return false;
      }
      return htm::SafeCas(dst, expected, desired);
    }
    if (htm::TxLoad(dst) != expected) {
      return false;
    }
    htm::TxStore(dst, desired);
    return true;
  }

  // StackTrack needs no publish-validate protocol: visibility comes from the scan plus
  // transaction conflicts. Part of the scheme-generic SMR API.
  template <typename T>
  [[gnu::always_inline]] T Protect(const std::atomic<T>& src, uint32_t /*slot*/) {
    return Load(src);
  }
  template <typename T>
  void ProtectRaw(uint32_t /*slot*/, T /*value*/) {}
  void AnchorHop(uint64_t /*key*/) {}

  // ---- Reclamation -----------------------------------------------------------------
  // Buffers a node for freeing. Transactional retires become final only when the
  // enclosing segment commits (an aborted segment rolls its retires back). The key is
  // part of the scheme-generic SMR API (drop-the-anchor needs it); unused here.
  void Retire(void* ptr, uint64_t key = 0);
  // The paper's FREE(ctx, ptr) for non-transactional callers: buffer + threshold scan.
  void Free(void* ptr);
  // Drains the free buffer as far as liveness allows, adopting deferred candidates
  // into the room each round frees. Returns survivors still held.
  std::size_t FlushFrees();

  std::size_t free_set_size() const { return free_set_.size(); }

  // Owner-thread access for ScanAndFree (never called concurrently with itself).
  std::vector<void*>& MutableFreeSet() { return free_set_; }

  // ---- Back-pressure (owner-thread only; driven by ScanAndFree) --------------------
  // Scans trigger when free_set reaches scan_threshold(). The threshold starts at
  // max_free and is raised (x2, capped at free_highwater_mult * max_free) by
  // ScanAndFree when survivors pile past the high water mark — scanning more often
  // against a stalled thread is pure waste — and decays back once pressure clears.
  uint32_t scan_threshold() const { return scan_threshold_; }
  uint32_t high_water() const { return config_.free_highwater_mult * config_.max_free; }
  void RaiseScanThreshold();
  void DecayScanThreshold();
  void NoteFreeSetSize() {
    if (free_set_.size() > stats.free_set_peak) {
      stats.free_set_peak = free_set_.size();
    }
  }

  // Called on the owning thread when it exits (via the thread-registry exit-hook
  // chain, alongside the pool allocator's magazine flush) and at
  // context destruction: drains what liveness allows, then hands surviving
  // candidates to the global deferred list instead of leaking them.
  void HandOffFreeSet();

  // ---- Root registration -----------------------------------------------------------
  void RegisterFrame(uintptr_t* base, uint32_t words);
  void DeregisterFrame(uintptr_t* base);

  template <typename T>
  RootRef<T> reg(uint32_t slot) {
    return RootRef<T>(&live_regs_[slot]);
  }

  // ---- Scanner-visible state (read by other threads' SCAN_AND_FREE) ----------------
  // Seqlock-encoded splits counter: odd while a register exposure is in flight; any
  // change across a scan invalidates it (paper's splits-counter protocol).
  std::atomic<uint64_t> splits_seq{0};
  std::atomic<uint64_t> oper_counter{0};
  // 1 while an operation is in flight. The stalled-thread watchdog needs it to tell
  // "mid-operation and not advancing" (a stall) from "idle" (oper_counter is static
  // in both cases, and its change-means-roots-dead semantics cannot be overloaded).
  std::atomic<uint32_t> op_active{0};
  std::atomic<uintptr_t> exposed_regs[kRegisterSlots] = {};
  struct FrameRec {
    std::atomic<uintptr_t> lo{0};
    std::atomic<uintptr_t> hi{0};
  };
  FrameRec frames[kMaxFrames];
  std::atomic<uint32_t> frame_count{0};
  // The words an abort of the running segment puts back into tracked frame `f`,
  // saved at each fast-segment arm (SaveReplayRoots). Under the software backend a
  // frame store inside a segment is a plain store, so the frame itself may show the
  // segment's uncommitted words; the committed ones are here until the next arm.
  const uintptr_t* replay_frame(uint32_t f) const { return frame_snapshot_[f]; }
  RefSet ref_set;

  Stats stats;

  const StConfig& config() const { return config_; }
  uint32_t tid() const { return tid_; }

  // Test hooks.
  uint32_t current_limit() const { return limit_; }
  uint32_t segment_index() const { return segment_index_; }
  uint32_t predictor_limit(uint32_t op_id, uint32_t segment) const {
    return predictor_[op_id][segment].limit;
  }
  // Distinguishes "never touched" from a legitimately learned limit equal to 0/min:
  // the exporter's table dump keys on this, not on limit == 0 (which a cell can reach
  // when min_split_limit is configured 0).
  bool predictor_cell_initialized(uint32_t op_id, uint32_t segment) const {
    return predictor_[op_id][segment].inited != 0;
  }

 private:
  struct PredictorCell {
    uint16_t limit = 0;          // set to initial_split_limit at first touch
    uint8_t consec_aborts = 0;   // streak state (paper §5.3)
    uint8_t consec_commits = 0;
    uint8_t inited = 0;          // first-touch marker; limit is meaningless before
  };

  template <typename T>
  [[gnu::noinline]] T SlowLoad(const std::atomic<T>& src) {
    static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
    while (true) {
      const T value = htm::SafeLoad(src);
      ++stats.slow_reads;
      const uint32_t slot = ref_set.Add(std::bit_cast<uintptr_t>(value));
      if (slot == RefSet::kOverflowSlot && !refset_overflowed_) [[unlikely]] {
        // Sticky overflow: the set now answers every scanner query "live", so
        // unrecorded values stay protected. Finish this segment under the
        // conservative regime, then retry on the fast path (CommitSegment/OpEnd).
        refset_overflowed_ = true;
        ++stats.refset_overflows;
      }
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (std::bit_cast<uintptr_t>(htm::SafeLoad(src)) == std::bit_cast<uintptr_t>(value)) {
        return value;
      }
      ref_set.Tombstone(slot);  // ignores kOverflowSlot
      ++stats.slow_read_retries;
    }
  }

  PredictorCell& CurrentCell();
  // The paper's §5.3 streak rule (DESIGN.md §5e).
  void PredictorOnAbort(PredictorCell& cell, int cause);
  void PredictorOnCommit();
  // Post-retire disposition: a free set at the scan threshold runs one inline round.
  void MaybeReclaim();
  void SaveReplayRoots();
  void RestoreReplayRoots();
  void ExposeRegisters();   // seqlock odd -> copy -> (caller completes) seqlock even
  void SpliceRetires();

  const uint32_t tid_;
  StConfig config_;

  // Split engine.
  uint32_t op_id_ = 0;
  uint32_t segment_index_ = 0;
  uint32_t steps_ = 0;
  uint32_t limit_ = 1;
  uint32_t attempt_fails_ = 0;   // consecutive failures of the current segment
  uint32_t scan_threshold_ = 0;  // adaptive free-set scan trigger (back-pressure)
  bool op_active_ = false;
  bool op_forced_slow_ = false;  // whole operation on slow path (Fig. 5)
  bool slow_segment_ = false;    // current segment runs on the slow path
  bool refset_overflowed_ = false;  // seen an overflow in the current slow segment
  PredictorCell predictor_[kMaxOps][kMaxSegments];

  // Root storage and rollback snapshots.
  uintptr_t live_regs_[kRegisterSlots] = {};
  uintptr_t reg_snapshot_[kRegisterSlots] = {};
  uintptr_t* frame_bases_[kMaxFrames] = {};
  uint32_t frame_words_[kMaxFrames] = {};
  uintptr_t frame_snapshot_[kMaxFrames][kMaxFrameWords] = {};

  // Reclamation buffers.
  std::vector<void*> tx_retire_;
  std::vector<void*> free_set_;

  runtime::Xorshift128 rng_;
};

// Global activity array (paper §5.2): maps thread ids to contexts so reclaimers can
// find every active thread's scanner-visible state.
class ActivityArray {
 public:
  static ActivityArray& Instance();

  void Set(uint32_t tid, StContext* ctx) { slots_[tid].store(ctx, std::memory_order_release); }
  StContext* Get(uint32_t tid) const { return slots_[tid].load(std::memory_order_acquire); }

 private:
  ActivityArray() = default;
  std::atomic<StContext*> slots_[runtime::kMaxThreads] = {};
};

// Number of threads currently executing slow-path segments; scanners consult reference
// sets only when nonzero (paper §5.4).
std::atomic<uint32_t>& GlobalSlowPathCount();

// One word of another thread's tracked frame, read by the conservative root scan
// (SweepRoots in core/free_proc.cc). The bounds the scanner read may
// already belong to a deregistered frame whose stack bytes now hold a different
// operation's frame; the splits/oper protocol discards such a scan, and the stack
// stays mapped while its thread lives, so only the read itself must be allowed.
// Exempt from ASan, which would report a read that lands in a redzone of the
// replacing frame (how often depends on each operation's frame layout), and from
// TSan, which sees the by-design race with the owner's plain stores but often cannot
// restore this read's stack, after a root-table sweep, to match a suppression.
[[gnu::no_sanitize("address", "thread")]] inline uintptr_t LoadFrameWord(uintptr_t addr) {
  return reinterpret_cast<const std::atomic<uintptr_t>*>(addr)->load(
      std::memory_order_acquire);
}

template <uint32_t N>
TrackedFrame<N>::TrackedFrame(StContext& ctx) : ctx_(ctx) {
  ctx_.RegisterFrame(words, N);
}

template <uint32_t N>
TrackedFrame<N>::~TrackedFrame() {
  ctx_.DeregisterFrame(words);
}

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_THREAD_CONTEXT_H_
