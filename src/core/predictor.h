// Split-length predictor: table geometry and trace payload (DESIGN.md §5e).
//
// The predictor is the paper's §5.3 streak rule: five consecutive capacity aborts or
// commits move a per-(op, segment) split limit by ±1 from a fixed start. The table
// lives in StContext (core/thread_context.h) and the rule in its PredictorOnAbort /
// PredictorOnCommit (core/thread_context.cc). This header holds what other layers
// share with it: the table geometry and the packed arg of the predictor trace records.
#ifndef STACKTRACK_CORE_PREDICTOR_H_
#define STACKTRACK_CORE_PREDICTOR_H_

#include <cstdint>

namespace stacktrack::core {

// Predictor table geometry (shared with StContext's per-thread table).
inline constexpr uint32_t kMaxOps = 12;       // distinct op ids per context
inline constexpr uint32_t kMaxSegments = 128; // predictor cells per op

// kPredictorGrow/Shrink records name the moved cell in one arg word (the event type
// says which way it moved):
//   bits  0..15  new limit
//   bits 16..27  segment index
//   bits 28..31  op id
constexpr uint64_t PredictorTraceArg(uint32_t limit, uint32_t op, uint32_t segment) {
  return (limit & 0xffffu) | (static_cast<uint64_t>(segment & 0xfffu) << 16) |
         (static_cast<uint64_t>(op & 0xfu) << 28);
}
constexpr uint32_t PredictorTraceLimit(uint64_t arg) { return arg & 0xffffu; }
constexpr uint32_t PredictorTraceSegment(uint64_t arg) { return (arg >> 16) & 0xfffu; }
constexpr uint32_t PredictorTraceOp(uint64_t arg) { return (arg >> 28) & 0xfu; }

// Residue: the streak rule is the only predictor. perfbench records this name in its
// config block and cannot change in the same commit as the library, so the one-value
// enum and its accessors stay until the benchmark drops the field.
enum class PredictorKind : uint8_t { kStreak = 0 };
constexpr PredictorKind ActivePredictor() { return PredictorKind::kStreak; }
constexpr const char* PredictorName(PredictorKind) { return "streak"; }

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_PREDICTOR_H_
