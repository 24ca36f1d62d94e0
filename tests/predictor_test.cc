// Split-predictor tests (DESIGN.md §5e): lazy cell init, the §5.3 streak rule's
// cause routing (only capacity aborts count toward a shrink) and its min/max clamps,
// the table dump, and the cell coordinates packed into kPredictorGrow/Shrink trace
// records.
#include <gtest/gtest.h>

#include <vector>

#include "core/predictor.h"
#include "core/split_engine.h"
#include "core/stats_export.h"
#include "runtime/trace.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::core {
namespace {

class PredictorTest : public ::testing::Test {
 protected:
  runtime::ThreadScope scope_;
};

// Streak threshold 2 unless a case sets its own: a few synthesized aborts or commits
// then cross it a known number of times.
StConfig StreakConfig(uint32_t initial) {
  StConfig config;
  config.initial_split_limit = initial;
  config.consec_threshold = 2;
  config.slow_after_fails = 1u << 30;  // keep every case on the fast path
  return config;
}

// Arms one op and returns the limit the (op, 0) cell held right after first touch —
// i.e. the lazily initialized value, before the op's own commit gets a chance to
// move it.
uint32_t TouchAndPeek(StContext& ctx, uint32_t op_id) {
  ST_OP_BEGIN(ctx, op_id);
  const uint32_t limit = ctx.predictor_limit(op_id, 0);
  ST_OP_END(ctx);
  return limit;
}

// Runs one op of `blocks` basic blocks, aborting the current segment with `cause`
// until `aborts_left` hits zero (the ARM loop then retries until the segment runs
// through). Loads nothing, so the only aborts are the synthesized ones.
void RunOp(StContext& ctx, uint32_t op_id, int blocks, int aborts,
           htm::AbortCause cause) {
  volatile int aborts_left = aborts;
  ST_OP_BEGIN(ctx, op_id);
  if (aborts_left > 0 && !ctx.in_slow_segment()) {
    aborts_left = aborts_left - 1;
    htm::TxAbort(cause);
  }
  for (int bb = 0; bb < blocks; ++bb) {
    ST_CHECKPOINT(ctx);
    if (aborts_left > 0 && !ctx.in_slow_segment()) {
      aborts_left = aborts_left - 1;
      htm::TxAbort(cause);
    }
  }
  ST_OP_END(ctx);
}

TEST_F(PredictorTest, LazyCellInit) {
  smr::StackTrackSmr::Domain domain(StreakConfig(37));
  StContext& ctx = domain.AcquireHandle();
  EXPECT_EQ(ctx.predictor_limit(4, 0), 0u);
  EXPECT_FALSE(ctx.predictor_cell_initialized(4, 0));
  EXPECT_EQ(TouchAndPeek(ctx, 4), 37u);
  EXPECT_TRUE(ctx.predictor_cell_initialized(4, 0));
  // Neighboring cells stay untouched.
  EXPECT_FALSE(ctx.predictor_cell_initialized(4, 1));
}

// The streak counts capacity aborts only: conflict, explicit and spurious aborts say
// nothing about a segment's footprint. At threshold 1 a counted abort would shrink.
TEST_F(PredictorTest, ExplicitAndSpuriousAbortsAreIgnored) {
  StConfig config = StreakConfig(40);
  config.consec_threshold = 1;
  config.max_split_limit = 40;  // pin ordinary commit growth so any move is a shrink
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  RunOp(ctx, 1, 1, 4, htm::AbortCause::kExplicit);
  RunOp(ctx, 1, 1, 4, htm::AbortCause::kOther);
  RunOp(ctx, 1, 1, 4, htm::AbortCause::kConflict);
  EXPECT_EQ(ctx.predictor_limit(1, 0), 40u);
  EXPECT_EQ(ctx.stats.predictor_decreases, 0u);
  EXPECT_EQ(ctx.stats.predictor_increases, 0u);
  EXPECT_EQ(ctx.stats.aborts_explicit, 4u);
  EXPECT_EQ(ctx.stats.aborts_other, 4u);
  EXPECT_EQ(ctx.stats.aborts_conflict, 4u);
}

TEST_F(PredictorTest, ShrinkClampsAtMinLimit) {
  StConfig config = StreakConfig(4);
  config.min_split_limit = 3;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  // Eight capacity aborts complete four streaks: the first moves 4 -> 3, the rest
  // stop at the floor.
  RunOp(ctx, 1, 1, 8, htm::AbortCause::kCapacity);
  EXPECT_EQ(ctx.predictor_limit(1, 0), 3u);
  EXPECT_EQ(ctx.stats.predictor_decreases, 1u);
}

TEST_F(PredictorTest, GrowthClampsAtMaxLimit) {
  StConfig config = StreakConfig(40);
  config.max_split_limit = 42;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  // Thirty commits complete fifteen streaks; only two fit under the ceiling.
  for (int op = 0; op < 30; ++op) {
    RunOp(ctx, 1, 1, 0, htm::AbortCause::kNone);
  }
  EXPECT_EQ(ctx.predictor_limit(1, 0), 42u);
  EXPECT_EQ(ctx.stats.predictor_increases, 2u);
}

// Regression: cells whose limit legitimately reached a min_split_limit of 0 used to be
// silently skipped by the dump (limit == 0 doubled as "uninitialized") and
// re-initialized on the next touch. Both halves are fixed by the explicit first-touch
// marker.
TEST_F(PredictorTest, DumpKeepsCellsAtZeroMinLimitAndNoReinit) {
  StConfig config;
  config.initial_split_limit = 1;
  config.min_split_limit = 0;
  // Threshold 3: the abort streak below shrinks exactly once, and the two commits
  // this test performs afterwards never complete a growth streak.
  config.consec_threshold = 3;
  config.slow_after_fails = 1u << 30;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  RunOp(ctx, 8, 1, 3, htm::AbortCause::kCapacity);  // 1 -> 0
  ASSERT_EQ(ctx.predictor_limit(8, 0), 0u);
  ASSERT_TRUE(ctx.predictor_cell_initialized(8, 0));

  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(PredictorTableToJson(), &doc));
  const minijson::Value* threads = doc.Find("threads");
  ASSERT_NE(threads, nullptr);
  bool found = false;
  for (const minijson::Value& thread : threads->array) {
    const minijson::Value* cells = thread.Find("cells");
    ASSERT_NE(cells, nullptr);
    for (const minijson::Value& cell : cells->array) {
      if (cell.Find("op")->AsU64() == 8 && cell.Find("segment")->AsU64() == 0) {
        found = true;
        EXPECT_EQ(cell.Find("limit")->AsU64(), 0u);
      }
    }
  }
  EXPECT_TRUE(found) << "limit-0 cell missing from the dump";

  // The learned 0 survives the next touch instead of re-initializing to 1.
  RunOp(ctx, 8, 1, 0, htm::AbortCause::kNone);
  EXPECT_EQ(ctx.predictor_limit(8, 0), 0u);
}

#if defined(STACKTRACK_TRACE_ENABLED)
TEST_F(PredictorTest, TraceRecordsCarryCellCoordinates) {
  namespace trace = runtime::trace;
  smr::StackTrackSmr::Domain domain(StreakConfig(40));
  StContext& ctx = domain.AcquireHandle();

  trace::ResetAll();
  trace::Arm(true);
  RunOp(ctx, 2, 1, 2, htm::AbortCause::kCapacity);  // one streak: 40 -> 39
  for (int op = 0; op < 4; ++op) {                  // two streaks: 39 -> 41
    RunOp(ctx, 2, 1, 0, htm::AbortCause::kNone);
  }
  trace::Arm(false);

  std::vector<uint32_t> shrinks;
  std::vector<uint32_t> grows;
  for (const trace::MergedRecord& r : trace::CollectMerged()) {
    if (r.event != trace::Event::kPredictorShrink &&
        r.event != trace::Event::kPredictorGrow) {
      continue;
    }
    EXPECT_EQ(PredictorTraceOp(r.arg), 2u);
    EXPECT_EQ(PredictorTraceSegment(r.arg), 0u);
    (r.event == trace::Event::kPredictorShrink ? shrinks : grows)
        .push_back(PredictorTraceLimit(r.arg));
  }
  EXPECT_EQ(shrinks, std::vector<uint32_t>({39}));
  EXPECT_EQ(grows, std::vector<uint32_t>({40, 41}));
}
#endif  // STACKTRACK_TRACE_ENABLED

}  // namespace
}  // namespace stacktrack::core
