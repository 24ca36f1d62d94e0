// Predictor policy tests (DESIGN.md §5e): streak/cost selection, lazy cell init,
// cause-family routing, the cost model's multiplicative-capacity / gentle-conflict
// asymmetry, hysteresis, min/max clamping, the warm-start pipeline (publish on
// retirement, seed on first touch, PredictorTableToJson round trip), and the packed
// cause tag on kPredictorGrow/Shrink trace records.
//
// Bands are overridden to deterministic values in the fixture: one capacity abort
// crosses the capacity threshold (EWMA reaches 1/8 of scale), two conflict aborts
// cross the conflict threshold, so every decision below is exact arithmetic, not a
// calibration artifact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>

#include "core/predictor.h"
#include "core/split_engine.h"
#include "core/stats_export.h"
#include "runtime/machine_model.h"
#include "runtime/trace.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::core {
namespace {

PredictorBands DeterministicBands() {
  PredictorBands bands;
  bands.capacity_shrink = 4000;  // one capacity abort (EWMA 4096) triggers
  bands.conflict_shrink = 7000;  // two conflict aborts (EWMA 7680) trigger
  bands.grow = 600;
  bands.cooldown = 2;
  return bands;
}

class PredictorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = ActivePredictor();
    PredictorWarmTable::Instance().Reset();
    OverridePredictorBands(DeterministicBands());
  }
  void TearDown() override {
    ClearPredictorBandsOverride();
    PredictorWarmTable::Instance().Reset();
    SelectPredictor(saved_);
    runtime::MachineModel::Instance().Configure(runtime::MachineConfig{});
  }

  runtime::ThreadScope scope_;
  PredictorKind saved_ = PredictorKind::kStreak;
};

StConfig CostConfig(uint32_t initial) {
  StConfig config;
  config.initial_split_limit = initial;
  config.slow_after_fails = 1u << 30;  // keep every case on the fast path
  return config;
}

// Arms one op and returns the limit the (op, 0) cell held right after first touch —
// i.e. the lazily-initialized / warm-seeded value, before the op's own commit gets a
// chance to move it.
uint32_t TouchAndPeek(StContext& ctx, uint32_t op_id) {
  ST_OP_BEGIN(ctx, op_id);
  const uint32_t seeded = ctx.predictor_limit(op_id, 0);
  ST_OP_END(ctx);
  return seeded;
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

TEST_F(PredictorTest, EnvStyleSelectionAndNames) {
  SelectPredictor(PredictorKind::kCost);
  EXPECT_EQ(ActivePredictor(), PredictorKind::kCost);
  EXPECT_STREQ(PredictorName(PredictorKind::kCost), "cost");
  SelectPredictor(PredictorKind::kStreak);
  EXPECT_EQ(ActivePredictor(), PredictorKind::kStreak);
  EXPECT_STREQ(PredictorName(PredictorKind::kStreak), "streak");
}

TEST_F(PredictorTest, LazyCellInitUnderBothPolicies) {
  for (PredictorKind kind : {PredictorKind::kStreak, PredictorKind::kCost}) {
    SelectPredictor(kind);
    smr::StackTrackSmr::Domain domain(CostConfig(37));
    StContext& ctx = domain.AcquireHandle();
    EXPECT_EQ(ctx.predictor_limit(4, 0), 0u) << PredictorName(kind);
    EXPECT_FALSE(ctx.predictor_cell_initialized(4, 0)) << PredictorName(kind);
    EXPECT_EQ(TouchAndPeek(ctx, 4), 37u) << PredictorName(kind);
    EXPECT_TRUE(ctx.predictor_cell_initialized(4, 0)) << PredictorName(kind);
    // Neighboring cells stay untouched.
    EXPECT_FALSE(ctx.predictor_cell_initialized(4, 1)) << PredictorName(kind);
  }
}

TEST_F(PredictorTest, CapacityAbortsShrinkMultiplicatively) {
  SelectPredictor(PredictorKind::kCost);
  smr::StackTrackSmr::Domain domain(CostConfig(40));
  StContext& ctx = domain.AcquireHandle();
  // One capacity abort: EWMA 4096 >= 4000, step = 40/4 -> limit 30.
  RunOp(ctx, 1, 1, 1, htm::AbortCause::kCapacity);
  EXPECT_EQ(ctx.predictor_limit(1, 0), 30u);
  EXPECT_EQ(ctx.stats.predictor_decreases, 1u);
  EXPECT_EQ(ctx.stats.aborts_capacity, 1u);
}

TEST_F(PredictorTest, ConflictAbortsShrinkGently) {
  SelectPredictor(PredictorKind::kCost);
  smr::StackTrackSmr::Domain domain(CostConfig(40));
  StContext& ctx = domain.AcquireHandle();
  // Two conflict aborts cross the 7000 band exactly once -> one gentle -1 step.
  RunOp(ctx, 1, 1, 2, htm::AbortCause::kConflict);
  EXPECT_EQ(ctx.predictor_limit(1, 0), 39u);
  EXPECT_EQ(ctx.stats.aborts_conflict, 2u);
  EXPECT_EQ(ctx.stats.predictor_decreases, 1u);
}

TEST_F(PredictorTest, ConflictPressureRecoversFast) {
  SelectPredictor(PredictorKind::kCost);
  smr::StackTrackSmr::Domain domain(CostConfig(40));
  StContext& ctx = domain.AcquireHandle();
  RunOp(ctx, 1, 1, 2, htm::AbortCause::kConflict);
  const uint32_t shrunk = ctx.predictor_limit(1, 0);
  ASSERT_LT(shrunk, 40u);
  // Contention clears: commit-only ops decay the EWMA past the grow band and the
  // conflict-regime growth steps (1 + limit/8) win the limit back quickly.
  for (int op = 0; op < 40; ++op) {
    RunOp(ctx, 1, 1, 0, htm::AbortCause::kNone);
  }
  EXPECT_GT(ctx.predictor_limit(1, 0), 40u);
  EXPECT_GT(ctx.stats.predictor_increases, 0u);
}

TEST_F(PredictorTest, ExplicitAndSpuriousAbortsAreIgnored) {
  SelectPredictor(PredictorKind::kCost);
  StConfig config = CostConfig(40);
  config.max_split_limit = 40;  // pin ordinary commit growth so any move is a shrink
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  RunOp(ctx, 1, 1, 4, htm::AbortCause::kExplicit);
  RunOp(ctx, 1, 1, 4, htm::AbortCause::kOther);
  EXPECT_EQ(ctx.predictor_limit(1, 0), 40u);
  EXPECT_EQ(ctx.stats.predictor_decreases, 0u);
  EXPECT_EQ(ctx.stats.predictor_increases, 0u);
  EXPECT_EQ(ctx.stats.aborts_explicit, 4u);
  EXPECT_EQ(ctx.stats.aborts_other, 4u);
}

TEST_F(PredictorTest, ShrinkClampsAtMinLimit) {
  SelectPredictor(PredictorKind::kCost);
  StConfig config = CostConfig(4);
  config.min_split_limit = 3;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  RunOp(ctx, 1, 1, 8, htm::AbortCause::kCapacity);
  EXPECT_EQ(ctx.predictor_limit(1, 0), 3u);
}

TEST_F(PredictorTest, GrowthClampsAtMaxLimit) {
  SelectPredictor(PredictorKind::kCost);
  StConfig config = CostConfig(40);
  config.max_split_limit = 42;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  for (int op = 0; op < 30; ++op) {
    RunOp(ctx, 1, 1, 0, htm::AbortCause::kNone);
  }
  EXPECT_EQ(ctx.predictor_limit(1, 0), 42u);
}

// A deterministic capacity cliff at limit 10 (every attempt above it aborts): the
// cost model must converge below the cliff and then hold still — the remembered
// capacity ceiling plus the grow/shrink dead band prevent the ±1 hunting the streak
// rule exhibits around a hard footprint edge.
TEST_F(PredictorTest, HysteresisParksBelowACapacityCliffWithoutOscillating) {
  SelectPredictor(PredictorKind::kCost);
  smr::StackTrackSmr::Domain domain(CostConfig(40));
  StContext& ctx = domain.AcquireHandle();

  auto cliff_op = [&ctx]() {
    ST_OP_BEGIN(ctx, 2);
    for (int bb = 0; bb < 8; ++bb) {
      ST_CHECKPOINT(ctx);
      if (!ctx.in_slow_segment() && ctx.current_limit() > 10) {
        htm::TxAbort(htm::AbortCause::kCapacity);
      }
    }
    ST_OP_END(ctx);
  };

  for (int op = 0; op < 60; ++op) {
    cliff_op();
  }
  const uint32_t converged = ctx.predictor_limit(2, 0);
  EXPECT_LE(converged, 10u);
  EXPECT_GT(converged, 0u);

  const uint64_t moves_before =
      ctx.stats.predictor_increases + ctx.stats.predictor_decreases;
  for (int op = 0; op < 200; ++op) {
    cliff_op();
  }
  const uint64_t moves =
      ctx.stats.predictor_increases + ctx.stats.predictor_decreases - moves_before;
  EXPECT_LE(moves, 4u) << "limit still hunting around the cliff";
  EXPECT_LE(ctx.predictor_limit(2, 0), 10u);
}

TEST_F(PredictorTest, WarmStartInheritanceAcrossContextsAndThreads) {
  SelectPredictor(PredictorKind::kCost);
  {
    smr::StackTrackSmr::Domain domain(CostConfig(40));
    StContext& ctx = domain.AcquireHandle();
    RunOp(ctx, 3, 1, 1, htm::AbortCause::kCapacity);  // 40 -> 30
    ASSERT_EQ(ctx.predictor_limit(3, 0), 30u);
  }  // domain destruction publishes learned limits into the shared table

  EXPECT_GT(PredictorWarmTable::Instance().CountSeeds(), 0u);

  // Same thread, fresh context: first touch inherits 30, not the initial 40.
  smr::StackTrackSmr::Domain domain(CostConfig(40));
  StContext& ctx = domain.AcquireHandle();
  EXPECT_EQ(TouchAndPeek(ctx, 3), 30u);
  EXPECT_GE(ctx.stats.predictor_warm_seeds, 1u);

  // A thread registering later inherits too (the paper's per-thread tables would
  // re-derive from the initial limit here).
  uint32_t seen = 0;
  std::thread worker([&domain, &seen] {
    runtime::ThreadScope worker_scope;
    StContext& worker_ctx = domain.AcquireHandle();
    seen = TouchAndPeek(worker_ctx, 3);
  });
  worker.join();
  EXPECT_EQ(seen, 30u);
}

// Satellite: PredictorTableToJson -> StConfig::warm_start_path round trip. The dump
// of a live table, written to disk and loaded through the config hook, must seed a
// fresh context with exactly the dumped limits (streak mode: the explicit load, not
// cost-mode publishing, is what flows the data).
TEST_F(PredictorTest, DumpToWarmStartRoundTrip) {
  SelectPredictor(PredictorKind::kStreak);
  std::string dump;
  {
    StConfig config;
    config.initial_split_limit = 21;
    smr::StackTrackSmr::Domain domain(config);
    StContext& ctx = domain.AcquireHandle();
    RunOp(ctx, 5, 1, 0, htm::AbortCause::kNone);
    RunOp(ctx, 6, 1, 0, htm::AbortCause::kNone);
    dump = PredictorTableToJson();  // while the context is still registered
  }
  const std::string path = ::testing::TempDir() + "/predictor_roundtrip.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(dump.c_str(), f);
  std::fclose(f);

  PredictorWarmTable::Instance().Reset();
  StConfig config;
  config.initial_split_limit = 50;
  config.warm_start_path = path;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  // Seeded from the dump (21), not re-derived from this config's initial 50.
  EXPECT_EQ(TouchAndPeek(ctx, 5), 21u);
  EXPECT_EQ(TouchAndPeek(ctx, 6), 21u);
  EXPECT_GE(ctx.stats.predictor_warm_seeds, 2u);
  // Untouched cells stay unseeded-and-uninitialized.
  EXPECT_FALSE(ctx.predictor_cell_initialized(7, 0));
}

// Satellite regression: cells whose limit legitimately reached a min_split_limit of
// 0 used to be silently skipped by the dump (limit == 0 doubled as "uninitialized")
// and re-initialized on the next touch. Both halves are fixed by the explicit
// first-touch marker.
TEST_F(PredictorTest, DumpKeepsCellsAtZeroMinLimitAndNoReinit) {
  SelectPredictor(PredictorKind::kStreak);
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
TEST_F(PredictorTest, TraceRecordsCarryCauseTagAndCellCoordinates) {
  namespace trace = runtime::trace;
  SelectPredictor(PredictorKind::kCost);
  smr::StackTrackSmr::Domain domain(CostConfig(40));
  StContext& ctx = domain.AcquireHandle();

  trace::ResetAll();
  trace::Arm(true);
  RunOp(ctx, 2, 1, 1, htm::AbortCause::kCapacity);   // one multiplicative shrink
  RunOp(ctx, 2, 1, 2, htm::AbortCause::kConflict);   // one gentle shrink
  for (int op = 0; op < 30; ++op) {                  // growth once pressure decays
    RunOp(ctx, 2, 1, 0, htm::AbortCause::kNone);
  }
  trace::Arm(false);

  int capacity_shrinks = 0;
  int conflict_shrinks = 0;
  int grows = 0;
  for (const trace::MergedRecord& r : trace::CollectMerged()) {
    if (r.event == trace::Event::kPredictorShrink) {
      EXPECT_EQ(PredictorTraceOp(r.arg), 2u);
      EXPECT_EQ(PredictorTraceSegment(r.arg), 0u);
      if (PredictorTraceFamily(r.arg) == CauseFamily::kCapacity) {
        ++capacity_shrinks;
        EXPECT_EQ(PredictorTraceLimit(r.arg), 30u);
      } else if (PredictorTraceFamily(r.arg) == CauseFamily::kConflict) {
        ++conflict_shrinks;
        EXPECT_EQ(PredictorTraceLimit(r.arg), 29u);
      }
    } else if (r.event == trace::Event::kPredictorGrow) {
      EXPECT_EQ(PredictorTraceFamily(r.arg), CauseFamily::kCommit);
      EXPECT_EQ(PredictorTraceOp(r.arg), 2u);
      ++grows;
    }
  }
  EXPECT_EQ(capacity_shrinks, 1);
  EXPECT_EQ(conflict_shrinks, 1);
  EXPECT_GT(grows, 0);
}
#endif  // STACKTRACK_TRACE_ENABLED

}  // namespace
}  // namespace stacktrack::core
