// Unit tests for the StackTrack split engine: checkpoint-driven segmentation, the
// length predictor, root snapshot/rollback, register exposure, retire buffering, and
// the seqlock protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/free_proc.h"
#include "core/split_engine.h"
#include "runtime/pool_alloc.h"
#include "runtime/machine_model.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::core {
namespace {

class SplitEngineTest : public ::testing::Test {
 protected:
  void TearDown() override {
    runtime::MachineModel::Instance().Configure(runtime::MachineConfig{});
  }
  runtime::ThreadScope scope_;
};

TEST_F(SplitEngineTest, CheckpointsSplitAtTheLimit) {
  StConfig config;
  config.initial_split_limit = 10;
  config.max_split_limit = 10;
  config.consec_threshold = 100;  // freeze the predictor
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();

  const uint64_t segments_before = ctx.stats.segments_committed;
  ST_OP_BEGIN(ctx, 0);
  for (int bb = 0; bb < 35; ++bb) {
    ST_CHECKPOINT(ctx);  // 35 basic blocks at limit 10 -> 3 mid-op commits
  }
  ST_OP_END(ctx);
  EXPECT_EQ(ctx.stats.segments_committed - segments_before, 4u);  // 3 splits + final
  EXPECT_EQ(ctx.stats.ops, 1u);
}

TEST_F(SplitEngineTest, PredictorGrowsOnConsecutiveCommits) {
  StConfig config;
  config.initial_split_limit = 5;
  config.consec_threshold = 2;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();

  for (int op = 0; op < 10; ++op) {
    ST_OP_BEGIN(ctx, 1);
    for (int bb = 0; bb < 30; ++bb) {
      ST_CHECKPOINT(ctx);
    }
    ST_OP_END(ctx);
  }
  // Segment 0 of op 1 committed 10 times with threshold 2 -> limit grew by ~5.
  EXPECT_GT(ctx.predictor_limit(1, 0), 5u);
  EXPECT_GT(ctx.stats.predictor_increases, 0u);
}

TEST_F(SplitEngineTest, PredictorShrinksUnderCapacityAborts) {
  runtime::MachineConfig machine;
  machine.base_capacity_lines = 8;  // tiny budget: long segments must capacity-abort
  machine.smt_capacity_lines = 8;
  runtime::MachineModel::Instance().Configure(machine);

  StConfig config;
  config.initial_split_limit = 30;
  config.consec_threshold = 2;
  config.slow_after_fails = 1u << 30;  // never escalate to the slow path here
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  std::atomic<uint64_t> words[64] = {};

  for (int op = 0; op < 6; ++op) {
    ST_OP_BEGIN(ctx, 2);
    for (int bb = 0; bb < 30; ++bb) {
      ST_CHECKPOINT(ctx);
      // One shared read per basic block, each on a fresh cache line: capacity is
      // a line budget (the backend's line-read cache dedups same-line re-reads,
      // exactly as real HTM footprint would), so adjacent-word reads would fit
      // the tiny budget and never abort.
      ctx.Load(words[(bb * 8) % 64]);
    }
    ST_OP_END(ctx);
  }
  EXPECT_LT(ctx.predictor_limit(2, 0), 30u);
  EXPECT_GT(ctx.stats.aborts_capacity, 0u);
  EXPECT_GT(ctx.stats.predictor_decreases, 0u);
}

TEST_F(SplitEngineTest, AbortRollsBackFrameAndRegisters) {
  smr::StackTrackSmr::Domain domain;
  StContext& ctx = domain.AcquireHandle();
  TrackedFrame<2> frame(ctx);
  frame.words[0] = 111;
  ctx.reg<uint64_t>(0) = uint64_t{222};

  volatile int attempts = 0;
  ST_OP_BEGIN(ctx, 3);
  ST_CHECKPOINT(ctx);
  attempts = attempts + 1;
  if (attempts == 1) {
    // Dirty the roots inside the segment, then force an abort: the engine must
    // restore both to their segment-entry values on re-execution.
    frame.words[0] = 999;
    ctx.reg<uint64_t>(0) = uint64_t{888};
    htm::TxAbort(htm::AbortCause::kExplicit);
  }
  EXPECT_EQ(frame.words[0], 111u);
  EXPECT_EQ(ctx.reg<uint64_t>(0).get(), uint64_t{222});
  ST_OP_END(ctx);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(ctx.stats.aborts_explicit, 1u);
}

TEST_F(SplitEngineTest, AbortDiscardsBufferedRetires) {
  auto& pool = runtime::PoolAllocator::Instance();
  smr::StackTrackSmr::Domain domain;
  StContext& ctx = domain.AcquireHandle();
  void* node = pool.Alloc(32);

  volatile int attempts = 0;
  ST_OP_BEGIN(ctx, 4);
  ST_CHECKPOINT(ctx);
  attempts = attempts + 1;
  if (attempts == 1) {
    ctx.Retire(node);
    htm::TxAbort(htm::AbortCause::kExplicit);  // retire must be rolled back
  }
  ST_OP_END(ctx);
  EXPECT_EQ(ctx.free_set_size(), 0u);  // nothing spliced from the aborted segment
  EXPECT_TRUE(pool.OwnsLive(node));    // and nothing was freed
  pool.Free(node);
}

TEST_F(SplitEngineTest, CommittedRetiresReachTheFreeSet) {
  smr::StackTrackSmr::Domain domain;
  StContext& ctx = domain.AcquireHandle();
  void* node = runtime::PoolAllocator::Instance().Alloc(32);

  ST_OP_BEGIN(ctx, 5);
  ctx.Retire(node);
  ST_OP_END(ctx);
  // max_free (default 32) not reached: buffered, not yet freed.
  EXPECT_EQ(ctx.free_set_size(), 1u);
  EXPECT_EQ(ctx.FlushFrees(), 0u);  // no other thread holds it -> freed now
  EXPECT_FALSE(runtime::PoolAllocator::Instance().OwnsLive(node));
}

TEST_F(SplitEngineTest, SeqlockIsEvenAndAdvancesPerSegment) {
  StConfig config;
  config.initial_split_limit = 4;
  config.max_split_limit = 4;
  config.consec_threshold = 100;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();

  const uint64_t seq_before = ctx.splits_seq.load();
  EXPECT_EQ(seq_before % 2, 0u);
  ST_OP_BEGIN(ctx, 6);
  for (int bb = 0; bb < 8; ++bb) {
    ST_CHECKPOINT(ctx);  // two mid-op commits -> two expose events
  }
  ST_OP_END(ctx);
  const uint64_t seq_after = ctx.splits_seq.load();
  EXPECT_EQ(seq_after % 2, 0u);
  EXPECT_EQ(seq_after - seq_before, 4u);  // +2 per exposed segment commit
}

TEST_F(SplitEngineTest, RegistersAreExposedAtSegmentCommitOnly) {
  StConfig config;
  config.initial_split_limit = 100;
  config.max_split_limit = 100;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();

  ST_OP_BEGIN(ctx, 7);
  ctx.reg<uint64_t>(3) = uint64_t{0xabcd};
  ST_CHECKPOINT(ctx);  // below the limit: no commit, no exposure
  EXPECT_EQ(ctx.exposed_regs[3].load(), 0u);
  ctx.CommitSegment();  // forced mid-op commit exposes the register file
  EXPECT_EQ(ctx.exposed_regs[3].load(), 0xabcdu);
  SMR_SEGMENT_ARM(ctx);
  ST_OP_END(ctx);
  // Operation end clears every root so idle threads pin nothing.
  EXPECT_EQ(ctx.exposed_regs[3].load(), 0u);
}

TEST_F(SplitEngineTest, OpEndBumpsOperCounter) {
  smr::StackTrackSmr::Domain domain;
  StContext& ctx = domain.AcquireHandle();
  const uint64_t before = ctx.oper_counter.load();
  ST_OP_BEGIN(ctx, 8);
  ST_OP_END(ctx);
  EXPECT_EQ(ctx.oper_counter.load(), before + 1);
}

TEST_F(SplitEngineTest, FramesRegisterAndDeregisterLifo) {
  smr::StackTrackSmr::Domain domain;
  StContext& ctx = domain.AcquireHandle();
  EXPECT_EQ(ctx.frame_count.load(), 0u);
  {
    TrackedFrame<4> outer(ctx);
    EXPECT_EQ(ctx.frame_count.load(), 1u);
    EXPECT_EQ(ctx.frames[0].lo.load(), reinterpret_cast<uintptr_t>(outer.words));
    {
      TrackedFrame<2> inner(ctx);
      EXPECT_EQ(ctx.frame_count.load(), 2u);
    }
    EXPECT_EQ(ctx.frame_count.load(), 1u);
  }
  EXPECT_EQ(ctx.frame_count.load(), 0u);
}

TEST_F(SplitEngineTest, PerSegmentPredictorCellsAreIndependent) {
  StConfig config;
  config.initial_split_limit = 6;
  config.max_split_limit = 20;
  config.consec_threshold = 1;  // adjust every segment
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();

  for (int op = 0; op < 4; ++op) {
    ST_OP_BEGIN(ctx, 9);
    for (int bb = 0; bb < 14; ++bb) {
      ST_CHECKPOINT(ctx);
    }
    ST_OP_END(ctx);
  }
  // Both the first and second segment cells of op 9 were exercised and grew
  // independently of op 0's cells.
  EXPECT_GT(ctx.predictor_limit(9, 0), 6u);
  EXPECT_GT(ctx.predictor_limit(9, 1), 6u);
  EXPECT_EQ(ctx.predictor_limit(0, 0), 0u);  // untouched cell stays uninitialized
}

// RefSet overflow must not abort the process: Add reports kOverflowSlot, the set goes
// sticky-conservative (every range query answers "maybe"), tombstoning the sentinel
// slot is harmless, and Clear restores normal operation.
TEST(RefSetTest, OverflowIsStickyAndConservativeNotFatal) {
  auto set = std::make_unique<RefSet>();  // too large for the stack
  for (uint32_t i = 0; i < RefSet::kSlots; ++i) {
    ASSERT_NE(set->Add(0x1000 + i * 16), RefSet::kOverflowSlot);
  }
  EXPECT_FALSE(set->overflowed());
  const uint32_t slot = set->Add(0xdead0000);
  EXPECT_EQ(slot, RefSet::kOverflowSlot);
  EXPECT_TRUE(set->overflowed());
  EXPECT_EQ(set->Add(0xbeef0000), RefSet::kOverflowSlot);  // sticky

  // Conservative: even a range no recorded value falls into answers "maybe".
  EXPECT_TRUE(set->ContainsRange(0x900000000, 64));
  set->Tombstone(slot);  // sentinel slot; must be a no-op, not an OOB store
  EXPECT_TRUE(set->overflowed());

  set->Clear();
  EXPECT_FALSE(set->overflowed());
  EXPECT_EQ(set->size(), 0u);
  EXPECT_FALSE(set->ContainsRange(0x900000000, 64));
  EXPECT_NE(set->Add(0x2000), RefSet::kOverflowSlot);  // usable again after Clear
}

}  // namespace
}  // namespace stacktrack::core
