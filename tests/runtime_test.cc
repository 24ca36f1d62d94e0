// Unit tests for the runtime substrate: PRNGs, backoff, barrier, latch, thread
// registry, machine model, and the preemption hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "runtime/backoff.h"
#include "runtime/barrier.h"
#include "runtime/cacheline.h"
#include "runtime/machine_model.h"
#include "runtime/preempt.h"
#include "runtime/rand.h"
#include "runtime/thread_registry.h"

namespace stacktrack::runtime {
namespace {

TEST(CacheLineTest, LinesTouched) {
  EXPECT_EQ(LinesTouched(0), 0u);
  EXPECT_EQ(LinesTouched(1), 1u);
  EXPECT_EQ(LinesTouched(64), 1u);
  EXPECT_EQ(LinesTouched(65), 2u);
  EXPECT_EQ(LinesTouched(256), 4u);
}

TEST(CacheLineTest, CacheAlignedOwnsWholeLines) {
  EXPECT_EQ(sizeof(CacheAligned<uint32_t>) % kCacheLineSize, 0u);
  EXPECT_EQ(sizeof(CacheAligned<char[65]>) % kCacheLineSize, 0u);
  CacheAligned<uint64_t> slots[4];
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&slots[i]) % kCacheLineSize, 0u);
  }
}

TEST(RandTest, DeterministicForEqualSeeds) {
  Xorshift128 a(123);
  Xorshift128 b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandTest, DifferentSeedsDiverge) {
  Xorshift128 a(1);
  Xorshift128 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.Next() == b.Next();
  }
  EXPECT_LT(equal, 3);
}

TEST(RandTest, BoundedStaysInRange) {
  Xorshift128 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RandTest, DoubleInUnitInterval) {
  Xorshift128 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // uniform mean
}

TEST(RandTest, BernoulliMatchesProbability) {
  Xorshift128 rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.NextBool(0.25);
  }
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(BackoffTest, GrowsAndSaturates) {
  ExponentialBackoff backoff(4, 64);
  EXPECT_EQ(backoff.current_limit(), 4u);
  for (int i = 0; i < 10; ++i) {
    backoff.Pause();
  }
  EXPECT_EQ(backoff.current_limit(), 64u);
  backoff.Reset();
  EXPECT_EQ(backoff.current_limit(), 4u);
}

TEST(BarrierTest, AlignsPhasesAcrossThreads) {
  constexpr uint32_t kParties = 4;
  constexpr int kPhases = 50;
  SpinBarrier barrier(kParties);
  std::atomic<int> phase_counts[kPhases] = {};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        phase_counts[p].fetch_add(1, std::memory_order_acq_rel);
        barrier.Wait();
        // After the barrier, every participant must have counted this phase.
        EXPECT_EQ(phase_counts[p].load(std::memory_order_acquire), static_cast<int>(kParties));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
}

TEST(SpinLatchTest, MutualExclusion) {
  SpinLatch latch;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        LatchGuard guard(latch);
        ++counter;  // unsynchronized except for the latch
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 40000);
}

TEST(SpinLatchTest, TryLockFailsWhenHeld) {
  SpinLatch latch;
  ASSERT_TRUE(latch.TryLock());
  EXPECT_FALSE(latch.TryLock());
  latch.Unlock();
  EXPECT_TRUE(latch.TryLock());
  latch.Unlock();
}

TEST(ThreadRegistryTest, ScopesAssignIds) {
  ThreadScope scope;
  const uint32_t tid = CurrentThreadId();
  ASSERT_NE(tid, kInvalidThreadId);
  EXPECT_EQ(scope.tid(), tid);
  EXPECT_LT(tid, ThreadRegistry::Instance().high_watermark());
}

TEST(ThreadRegistryTest, NestedScopesShareOneRegistration) {
  ThreadScope outer;
  const uint32_t outer_tid = CurrentThreadId();
  {
    ThreadScope inner;
    EXPECT_EQ(CurrentThreadId(), outer_tid);
  }
  EXPECT_EQ(CurrentThreadId(), outer_tid);  // still registered
}

TEST(ThreadRegistryTest, IdsAreUniqueAcrossLiveThreads) {
  constexpr int kThreads = 8;
  std::atomic<uint32_t> seen_mask{0};
  SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ThreadScope scope;
      barrier.Wait();  // everyone registered simultaneously
      const uint32_t bit = 1u << scope.tid();
      EXPECT_EQ(seen_mask.fetch_or(bit, std::memory_order_acq_rel) & bit, 0u)
          << "duplicate tid " << scope.tid();
      barrier.Wait();
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
}

TEST(MachineModelTest, CapacityShrinksPastPhysicalCores) {
  MachineConfig config;
  config.physical_cores = 2;
  config.smt_ways = 2;
  config.base_capacity_lines = 100;
  config.smt_capacity_lines = 30;
  MachineModel::Instance().Configure(config);

  std::vector<std::unique_ptr<ThreadScope>> scopes;
  std::vector<std::thread> holders;
  std::atomic<bool> release{false};
  std::atomic<uint32_t> ready{0};
  for (int t = 0; t < 3; ++t) {
    holders.emplace_back([&] {
      ThreadScope scope;
      ready.fetch_add(1);
      while (!release.load()) {
        sched_yield();
      }
    });
  }
  while (ready.load() < 3) {
    sched_yield();
  }
  EXPECT_EQ(MachineModel::Instance().CapacityLinesNow(), 30u);  // 3 > 2 cores
  EXPECT_EQ(MachineModel::Instance().SpuriousAbortProbNow(), 0.0);  // 3 <= 4 contexts
  release.store(true);
  for (auto& holder : holders) {
    holder.join();
  }
  EXPECT_EQ(MachineModel::Instance().CapacityLinesNow(), 100u);
  MachineModel::Instance().Configure(MachineConfig{});  // restore defaults
}

TEST(PreemptTest, DisarmedHookNeverSleeps) {
  DisarmPreemption();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000000; ++i) {
    PreemptPoint();
  }
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(ms, 200.0);  // ~ns per call, nowhere near a single injected sleep
}

TEST(PreemptTest, ArmedHookSleepsApproximatelyAtRate) {
  // Probabilistic: 256 visits at p=1/64 miss entirely with probability (63/64)^256
  // ~ 1.8%, which is far too flaky for a single-shot assertion. Re-run the bounded
  // experiment until a sleep is observed; 8 independent attempts push the false-
  // failure rate below 1e-13 while any real regression (hook never sleeping) still
  // fails fast.
  ArmPreemption(1.0 / 64.0, 1000);  // ~1 ms sleep per 64 visits
  bool slept = false;
  for (int attempt = 0; attempt < 8 && !slept; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 256; ++i) {
      PreemptPoint();
    }
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    slept = ms > 0.5;
  }
  DisarmPreemption();
  EXPECT_TRUE(slept) << "no injected sleep observed in 8x256 armed visits";
}

}  // namespace
}  // namespace stacktrack::runtime
