// Unit tests for the software-only slow path (Algorithms 4 and 5): reference-set
// maintenance, the global slow-path counter, forced-slow operations, fast/slow
// interoperability, and escalation after persistent segment failure.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/free_proc.h"
#include "runtime/pool_alloc.h"
#include "ds/list.h"
#include "runtime/machine_model.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::core {
namespace {

class SlowPathTest : public ::testing::Test {
 protected:
  void TearDown() override {
    runtime::MachineModel::Instance().Configure(runtime::MachineConfig{});
  }
  runtime::ThreadScope scope_;
};

TEST_F(SlowPathTest, ForcedSlowOpsPopulateAndClearRefSet) {
  StConfig config;
  config.forced_slow_fraction = 1.0;  // every operation on the slow path
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  std::atomic<uint64_t> a{1};
  std::atomic<uint64_t> b{2};

  EXPECT_EQ(GlobalSlowPathCount().load(), 0u);
  SMR_OP_BEGIN(ctx, 0);
  EXPECT_TRUE(ctx.in_slow_segment());
  EXPECT_EQ(GlobalSlowPathCount().load(), 1u);
  EXPECT_EQ(ctx.Load(a), 1u);
  EXPECT_EQ(ctx.Load(b), 2u);
  EXPECT_GE(ctx.ref_set.size(), 2u);  // every shared read is treated as hazardous
  SMR_OP_END(ctx);
  EXPECT_EQ(GlobalSlowPathCount().load(), 0u);
  EXPECT_EQ(ctx.ref_set.size(), 0u);  // SLOW_COMMIT resets the reference set
  EXPECT_EQ(ctx.stats.slow_ops, 1u);
  EXPECT_GE(ctx.stats.segments_slow, 1u);
}

TEST_F(SlowPathTest, SlowWritesAreDirectAndRecorded) {
  StConfig config;
  config.forced_slow_fraction = 1.0;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  std::atomic<uint64_t> word{5};

  SMR_OP_BEGIN(ctx, 1);
  ctx.Store(word, uint64_t{6});
  EXPECT_EQ(word.load(), 6u);  // direct, not buffered (Algorithm 5 SLOW_WRITE)
  EXPECT_TRUE(ctx.Cas(word, uint64_t{6}, uint64_t{7}));
  EXPECT_FALSE(ctx.Cas(word, uint64_t{6}, uint64_t{8}));
  EXPECT_EQ(word.load(), 7u);
  SMR_OP_END(ctx);
}

TEST_F(SlowPathTest, SlowReaderRefSetPinsNodesAgainstScans) {
  StConfig config;
  config.forced_slow_fraction = 1.0;
  smr::StackTrackSmr::Domain domain(config);
  StContext& reclaimer = domain.AcquireHandle();
  auto& pool = runtime::PoolAllocator::Instance();

  // Target context on a registered slot, executing a slow segment that has read a
  // node pointer.
  const uint32_t target_tid = runtime::ThreadRegistry::Instance().RegisterCurrentThread();
  {
    StContext target(target_tid, config);
    void* node = pool.Alloc(64);
    std::atomic<uint64_t> shared{reinterpret_cast<uint64_t>(node)};

    SMR_OP_BEGIN(target, 2);
    EXPECT_TRUE(target.in_slow_segment());
    target.Load(shared);  // records the node pointer in the reference set

    reclaimer.MutableFreeSet().push_back(node);
    ScanAndFree(reclaimer);
    // GlobalSlowPathCount != 0 makes the scan consult reference sets.
    EXPECT_TRUE(pool.OwnsLive(node)) << "freed a node pinned only by a reference set";

    SMR_OP_END(target);
    EXPECT_EQ(reclaimer.FlushFrees(), 0u);
    EXPECT_FALSE(pool.OwnsLive(node));
  }
  runtime::ThreadRegistry::Instance().Deregister(target_tid);
}

TEST_F(SlowPathTest, PersistentSegmentFailureEscalatesToSlowPath) {
  // A capacity budget of zero makes every fast attempt abort immediately; after
  // slow_after_fails failures the engine must fall back to the software path and
  // still complete the operation.
  runtime::MachineConfig machine;
  machine.base_capacity_lines = 0;
  machine.smt_capacity_lines = 0;
  runtime::MachineModel::Instance().Configure(machine);

  StConfig config;
  config.slow_after_fails = 8;
  config.min_split_limit = 1;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  std::atomic<uint64_t> word{11};

  SMR_OP_BEGIN(ctx, 3);
  // Fast attempts abort at the Load below and loop back to the begin point; only the
  // eventual slow-path execution reaches the lines after it.
  EXPECT_EQ(ctx.Load(word), 11u);  // completes despite a hostile HTM
  EXPECT_TRUE(ctx.in_slow_segment());
  SMR_OP_END(ctx);
  EXPECT_GE(ctx.stats.aborts_capacity, 8u);
  EXPECT_GE(ctx.stats.segments_slow, 1u);
  EXPECT_EQ(GlobalSlowPathCount().load(), 0u);
}

TEST_F(SlowPathTest, SlowAndFastOpsInteroperateOnOneList) {
  // Two domains sharing a list: one forces the slow path, one runs fast. The slow
  // writer's direct CASes must respect stripe versions so fast transactions conflict
  // rather than observe torn state.
  StConfig slow_config;
  slow_config.forced_slow_fraction = 1.0;
  smr::StackTrackSmr::Domain domain(slow_config);

  ds::LockFreeList<smr::StackTrackSmr> list;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> fast_ops{0};

  std::thread fast_thread([&] {
    runtime::ThreadScope scope;
    // Fresh per-thread context from the same domain but with fast ops: override by
    // toggling forced fraction through a second domain is not allowed (one domain at
    // a time), so the fast thread simply uses probability 0 via its own config copy.
    StContext ctx(runtime::CurrentThreadId(), StConfig{});
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint64_t key = 1; key <= 32; ++key) {
        list.Contains(ctx, key);
      }
      fast_ops.fetch_add(32, std::memory_order_relaxed);
    }
  });

  {
    StContext& slow_ctx = domain.AcquireHandle();
    int round = 0;
    // Keep mutating until the fast reader has completed at least one full sweep, so
    // the two paths demonstrably overlapped (and a minimum of 200 rounds regardless).
    while (round < 200 || fast_ops.load(std::memory_order_acquire) == 0) {
      const uint64_t key = 1 + (round % 32);
      if (round % 2 == 0) {
        list.Insert(slow_ctx, key, key);
      } else {
        list.Remove(slow_ctx, key);
      }
      ++round;
    }
  }
  stop.store(true);
  fast_thread.join();
  EXPECT_GT(fast_ops.load(), 0u);
  EXPECT_EQ(GlobalSlowPathCount().load(), 0u);
}

TEST_F(SlowPathTest, ForcedFractionIsRespectedStatistically) {
  StConfig config;
  config.forced_slow_fraction = 0.3;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  for (int i = 0; i < 2000; ++i) {
    SMR_OP_BEGIN(ctx, 4);
    SMR_OP_END(ctx);
  }
  const double fraction = static_cast<double>(ctx.stats.slow_ops) / 2000.0;
  EXPECT_NEAR(fraction, 0.3, 0.05);
}

}  // namespace
}  // namespace stacktrack::core
