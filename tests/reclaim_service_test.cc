// Tests for the asynchronous reclamation service (core/reclaim_service.h): install
// lifecycle, drain-on-shutdown completeness, the ring-full inline fallback, lag-driven
// back-pressure, and heartbeat failover when a reclaimer is stalled via fault
// injection. Each test quiesces the service and leaves the injector disarmed so the
// suite runs both one-per-process under ctest and all-in-one.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/reclaim_service.h"
#include "core/stats.h"
#include "core/thread_context.h"
#include "runtime/fault.h"
#include "runtime/pool_alloc.h"
#include "runtime/thread_registry.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack {
namespace {

namespace fault = runtime::fault;
using fault::Site;

class ReclaimServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    ASSERT_EQ(core::ReclaimService::Active(), nullptr)
        << "a previous test leaked an installed service";
  }
  void TearDown() override { fault::DisarmAll(); }

  // Bounded wait for an asynchronous service-side condition; the reclaimers share
  // this CPU, so every wait yields.
  template <typename Pred>
  static bool WaitFor(Pred pred, int spins = 200000) {
    for (int i = 0; i < spins; ++i) {
      if (pred()) {
        return true;
      }
      sched_yield();
    }
    return pred();
  }
};

TEST_F(ReclaimServiceTest, StartStopInstallLifecycleIsIdempotent) {
  core::ReclaimService service;
  EXPECT_FALSE(service.running());
  service.Start();
  EXPECT_TRUE(service.running());
  EXPECT_EQ(core::ReclaimService::Active(), &service);
  service.Start();  // second Start is a no-op, not a respawn
  EXPECT_TRUE(service.running());
  EXPECT_EQ(service.healthy_reclaimers(), service.config().reclaimers);
  service.Stop();
  EXPECT_FALSE(service.running());
  EXPECT_EQ(core::ReclaimService::Active(), nullptr);
  service.Stop();  // second Stop is a no-op
  EXPECT_EQ(core::ReclaimService::Active(), nullptr);
}

TEST_F(ReclaimServiceTest, OffloadedFreesDrainCompletelyOnShutdown) {
  runtime::ThreadScope scope;
  auto& pool = runtime::PoolAllocator::Instance();
  const auto pool_before = pool.GetStats();
  const core::Stats registry_before = core::StatsRegistry::Instance().Sum();

  core::ReclaimService service;
  service.Start();
  {
    smr::StackTrackSmr::Domain domain;
    core::StContext& ctx = domain.AcquireHandle();
    constexpr int kNodes = 512;
    for (int i = 0; i < kNodes; ++i) {
      ctx.Free(pool.Alloc(64));  // offered to the service's hand-off ring
    }
    // Graceful shutdown drains every ring and flushes until nothing moves; whatever
    // the service never accepted is still in this context's free set.
    service.Stop();
    EXPECT_EQ(service.TotalQueued(), 0u) << "ring residue survived Stop()";
    ctx.FlushFrees();
  }
  EXPECT_EQ(pool.GetStats().live_objects, pool_before.live_objects)
      << "offloaded retirements leaked across shutdown";

  core::Stats registry_after = core::StatsRegistry::Instance().Sum();
  EXPECT_GT(registry_after.service_batches, registry_before.service_batches)
      << "the service should have consumed at least one hand-off batch";
}

TEST_F(ReclaimServiceTest, RingFullFallsBackToInlineScans) {
  runtime::ThreadScope scope;
  auto& pool = runtime::PoolAllocator::Instance();
  const auto pool_before = pool.GetStats();

  core::ReclaimServiceConfig svc_cfg;
  svc_cfg.reclaimers = 1;
  svc_cfg.ring_capacity = 8;  // tiny: fills as soon as the reclaimer stops consuming
  core::ReclaimService service(svc_cfg);
  service.Start();
  ASSERT_TRUE(WaitFor([&] {
    return service.reclaimer_tid(0) != runtime::kInvalidThreadId;
  })) << "reclaimer thread never registered";

  // Park the only reclaimer at its preempt point: nothing consumes the ring.
  const uint32_t rtid = service.reclaimer_tid(0);
  fault::ArmGate(Site::kThreadStall, rtid);
  ASSERT_TRUE(WaitFor([&] { return fault::IsStalled(rtid); }));
  {
    core::StConfig cfg;
    cfg.max_free = 4;
    smr::StackTrackSmr::Domain domain(cfg);
    core::StContext& ctx = domain.AcquireHandle();
    for (int i = 0; i < 256; ++i) {
      ctx.Free(pool.Alloc(64));
    }
    // The ring absorbed at most its capacity; everything else crossed the scan
    // threshold and was reclaimed by the mutator itself.
    EXPECT_GT(ctx.stats.inline_fallbacks, 0u)
        << "a full ring must push the mutator back to inline scanning";
    EXPECT_LE(service.RingDepth(scope.tid()), 8u);
    fault::ReleaseGate(Site::kThreadStall);
    service.Stop();
    ctx.FlushFrees();
  }
  EXPECT_EQ(pool.GetStats().live_objects, pool_before.live_objects);
}

TEST_F(ReclaimServiceTest, BackpressureEngagesOnLagAndClearsAtHalf) {
  runtime::ThreadScope scope;
  auto& pool = runtime::PoolAllocator::Instance();

  core::ReclaimServiceConfig svc_cfg;
  svc_cfg.reclaimers = 1;
  svc_cfg.lag_threshold = 64;
  svc_cfg.lag_check_interval = 1;  // sample every reclaimer pass
  core::ReclaimService service(svc_cfg);
  service.Start();
  {
    smr::StackTrackSmr::Domain domain;
    core::StContext& ctx = domain.AcquireHandle();

    // Manufacture registry-wide lag directly through this context's counters (the
    // service samples StatsRegistry, the same quantity the T1 timeline exports).
    ctx.stats.retires += 1000;
    EXPECT_TRUE(WaitFor([&] { return service.backpressure_engaged(); }))
        << "lag above the threshold must engage back-pressure";

    // While engaged, offers are refused and the caller keeps ownership.
    void* block = pool.Alloc(64);
    EXPECT_EQ(service.OfferBatch(scope.tid(), &block, 1), 0u);
    pool.Free(block);

    // Clearing the lag below half the threshold disengages it.
    ctx.stats.frees += 1000;
    EXPECT_TRUE(WaitFor([&] { return !service.backpressure_engaged(); }))
        << "back-pressure must clear once the backlog drains";
    service.Stop();
  }
}

TEST_F(ReclaimServiceTest, FailoverAdoptsShardsOfStalledReclaimer) {
  runtime::ThreadScope scope;
  auto& pool = runtime::PoolAllocator::Instance();
  const auto pool_before = pool.GetStats();
  const core::Stats registry_before = core::StatsRegistry::Instance().Sum();

  core::ReclaimServiceConfig svc_cfg;
  svc_cfg.reclaimers = 2;
  svc_cfg.failover_timeout_ns = 5'000'000;  // 5 ms: fail fast under test
  core::ReclaimService service(svc_cfg);
  service.Start();
  ASSERT_TRUE(WaitFor([&] {
    return service.reclaimer_tid(0) != runtime::kInvalidThreadId &&
           service.reclaimer_tid(1) != runtime::kInvalidThreadId;
  }));

  // Freeze reclaimer 0's heartbeat by parking it at its preempt point. Its peer must
  // notice the frozen heartbeat, mark it failed, and adopt its shards.
  const uint32_t rtid = service.reclaimer_tid(0);
  fault::ArmGate(Site::kThreadStall, rtid);
  ASSERT_TRUE(WaitFor([&] { return fault::IsStalled(rtid); }));
  EXPECT_TRUE(WaitFor([&] { return service.healthy_reclaimers() == 1; }))
      << "the surviving reclaimer never flagged its frozen peer";

  {
    smr::StackTrackSmr::Domain domain;
    core::StContext& ctx = domain.AcquireHandle();
    // Work offered after the failover — including work landing in the dead
    // reclaimer's shards — still drains via the surviving reclaimer.
    for (int i = 0; i < 256; ++i) {
      ctx.Free(pool.Alloc(64));
    }
    // Release the gate before Stop (a parked reclaimer cannot be joined). The failed
    // reclaimer wakes, observes its kFailed state, and exits as a casualty; Stop
    // still drains everything through the survivor's final sweep.
    fault::ReleaseGate(Site::kThreadStall);
    service.Stop();
    EXPECT_EQ(service.TotalQueued(), 0u);
    ctx.FlushFrees();
  }
  EXPECT_EQ(pool.GetStats().live_objects, pool_before.live_objects)
      << "retirements leaked across the failover";
  core::Stats registry_after = core::StatsRegistry::Instance().Sum();
  EXPECT_GT(registry_after.failovers, registry_before.failovers);
}

}  // namespace
}  // namespace stacktrack
