// Split-length predictor policy layer (DESIGN.md §5e).
//
// Two runtime-selectable policies drive the per-(op, segment) split-limit table that
// StContext owns (core/thread_context.h):
//
//  * kStreak — the paper's §5.3 rule, unchanged: 5 consecutive capacity aborts /
//    commits move the limit by ±1 from a fixed start. This is the default and its
//    decision path is byte-for-byte the pre-cost-model code.
//  * kCost — an abort-cause-aware cost model. Each cell keeps two fixed-point EWMA
//    abort rates, one per cause family: capacity aborts are deterministic at a given
//    footprint, so they shrink the limit multiplicatively and pin a remembered
//    ceiling the limit never climbs back across; conflict aborts are transient, so
//    they shrink gently and the limit recovers fast once the contention clears;
//    explicit/spurious aborts carry no footprint signal and are ignored. The
//    shrink/grow thresholds form a hysteresis dead band sized from the measured
//    slow-path vs transactional-retry cost ratio (see CalibratePredictorBands), so
//    the limit parks just under the capacity cliff instead of oscillating around it.
//
// The policy is latched from ST_PREDICTOR (streak|cost) at static init;
// SelectPredictor() lets tests and the A/B bench switch at quiescent points.
//
// The warm-start pipeline also lives here: PredictorWarmTable is a process-wide
// per-(op, segment) seed table. It is filled either offline (tools/predictor_tune
// mines a trace_dump JSON and ST_PREDICTOR_WARM / StConfig::warm_start_path load the
// result) or online (cost-mode contexts publish their learned limits when they
// retire, so threads registering later inherit instead of re-deriving from the
// initial 50). StContext seeds a cell from the table on first touch.
#ifndef STACKTRACK_CORE_PREDICTOR_H_
#define STACKTRACK_CORE_PREDICTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "htm/htm.h"

namespace stacktrack::core {

// Predictor table geometry (shared with StContext's per-thread table).
inline constexpr uint32_t kMaxOps = 12;       // distinct op ids per context
inline constexpr uint32_t kMaxSegments = 128; // predictor cells per op

// ---- Policy selection ------------------------------------------------------------

enum class PredictorKind : uint8_t {
  kStreak = 0,  // paper §5.3: consecutive-streak ±1
  kCost = 1,    // cause-aware EWMA cost model
};

namespace internal {
// Non-atomic on purpose, like htm::internal::g_backend: latched from the
// environment before main(), switched afterwards only at quiescent points.
inline PredictorKind g_predictor = PredictorKind::kStreak;
}  // namespace internal

inline PredictorKind ActivePredictorFast() { return internal::g_predictor; }

// Test/bench hook: switch the policy between phases. Must not be called while any
// thread is inside an operation.
void SelectPredictor(PredictorKind kind);
PredictorKind ActivePredictor();
const char* PredictorName(PredictorKind kind);

// ---- Abort-cause families --------------------------------------------------------

// The cost model folds htm::AbortCause into three families: capacity (deterministic
// footprint overflow), conflict (transient contention), and ignored (explicit aborts
// are protocol decisions, "other" is spurious noise — neither says anything about
// the segment's length).
enum class CauseFamily : uint8_t {
  kCommit = 0,  // not an abort; used to tag growth decisions in trace records
  kConflict = 1,
  kCapacity = 2,
  kIgnored = 3,
};

constexpr CauseFamily CauseFamilyOf(int cause) {
  switch (static_cast<htm::AbortCause>(cause)) {
    case htm::AbortCause::kCapacity:
      return CauseFamily::kCapacity;
    case htm::AbortCause::kConflict:
      return CauseFamily::kConflict;
    default:
      return CauseFamily::kIgnored;
  }
}

constexpr const char* CauseFamilyName(CauseFamily family) {
  switch (family) {
    case CauseFamily::kCommit: return "commit";
    case CauseFamily::kConflict: return "conflict";
    case CauseFamily::kCapacity: return "capacity";
    case CauseFamily::kIgnored: return "ignored";
  }
  return "unknown";
}

// ---- Trace payload packing -------------------------------------------------------

// kPredictorGrow/Shrink records carry the full decision context in one arg word so
// offline tools (tools/predictor_tune) can attribute limit moves to cells:
//   bits  0..15  new limit
//   bits 16..27  segment index
//   bits 28..31  op id
//   bits 32..33  CauseFamily that drove the move (kCommit for growth)
constexpr uint64_t PredictorTraceArg(uint32_t limit, uint32_t op, uint32_t segment,
                                     CauseFamily family) {
  return (limit & 0xffffu) | (static_cast<uint64_t>(segment & 0xfffu) << 16) |
         (static_cast<uint64_t>(op & 0xfu) << 28) |
         (static_cast<uint64_t>(family) << 32);
}
constexpr uint32_t PredictorTraceLimit(uint64_t arg) { return arg & 0xffffu; }
constexpr uint32_t PredictorTraceSegment(uint64_t arg) { return (arg >> 16) & 0xfffu; }
constexpr uint32_t PredictorTraceOp(uint64_t arg) { return (arg >> 28) & 0xfu; }
constexpr CauseFamily PredictorTraceFamily(uint64_t arg) {
  return static_cast<CauseFamily>((arg >> 32) & 0x3u);
}

// ---- Hysteresis bands ------------------------------------------------------------

// EWMA fixed point: rates live in [0, kPredictorEwmaOne] (Q15). One sample moves an
// EWMA by 1/2^kPredictorEwmaShift of the distance to its target, so ~3 consecutive
// capacity aborts cross a 1/3 threshold from cold.
inline constexpr uint32_t kPredictorEwmaOne = 1u << 15;
inline constexpr uint32_t kPredictorEwmaShift = 3;

struct PredictorBands {
  // Shrink when the family EWMA reaches these (Q15 abort rates). The conflict
  // threshold sits above the capacity one: transient contention is tolerated longer
  // before the segment pays a shorter limit.
  uint32_t capacity_shrink = kPredictorEwmaOne / 3;
  uint32_t conflict_shrink = kPredictorEwmaOne / 2;
  // Grow only when both EWMAs have decayed under this; the gap between grow and
  // shrink thresholds is the hysteresis dead band.
  uint32_t grow = kPredictorEwmaOne / 12;
  // Commits to wait after any limit move before growing again, so the new operating
  // point accumulates its own evidence first.
  uint32_t cooldown = 4;
};

// Bands in use: the override if set, else the lazily calibrated ones. First call may
// run the calibration loop (a few empty transactions + slow-path-style reads); always
// called outside any transaction.
const PredictorBands& ActivePredictorBands();
// Test hooks: pin deterministic bands / return to calibration.
void OverridePredictorBands(const PredictorBands& bands);
void ClearPredictorBandsOverride();

// ---- Warm-start table ------------------------------------------------------------

// Process-wide per-(op, segment) seed limits. Lock-free: readers are on the segment
// hot path (one relaxed flag load when the table is empty), writers are rare (file
// load at startup, per-cell publish at context retirement).
class PredictorWarmTable {
 public:
  static PredictorWarmTable& Instance();

  // 0 = no seed for this cell.
  uint16_t Seed(uint32_t op, uint32_t segment) const {
    if (!any_.load(std::memory_order_relaxed)) {
      return 0;
    }
    return cells_[op][segment].load(std::memory_order_relaxed);
  }

  // Online inheritance: a retiring cost-mode context folds its learned limits in.
  // Last writer wins per cell — the races are benign (any learned value beats the
  // static initial limit).
  void Publish(uint32_t op, uint32_t segment, uint16_t limit);

  // Accepts either tools/predictor_tune output ({"cells":[{"op","segment","limit"}]})
  // or a PredictorTableToJson dump ({"threads":[{"tid","cells":[...]}]}, merged with
  // the per-cell median across threads). Returns false and fills *error on parse
  // failure; a successful load marks the table loaded() which enables seeding even
  // under the streak predictor.
  bool LoadFromJson(std::string_view json, std::string* error);
  bool LoadFromFile(const std::string& path, std::string* error);

  void Reset();  // tests / bench slices: drop all seeds and the loaded mark

  bool loaded() const { return loaded_.load(std::memory_order_acquire); }
  std::size_t CountSeeds() const;

 private:
  PredictorWarmTable() = default;
  std::atomic<uint16_t> cells_[kMaxOps][kMaxSegments] = {};
  std::atomic<bool> any_{false};
  std::atomic<bool> loaded_{false};
};

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_PREDICTOR_H_
