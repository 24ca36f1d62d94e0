// Tests for the fault-injection subsystem and the robustness machinery it drives:
// deterministic per-thread schedules, forced transaction aborts, bounded inspection
// retries with conservative answers, free-set back-pressure and the global deferred
// list, the stalled-thread watchdog, the thread-exit reclamation handoff, and the
// interleavings a deterministic stall pins down.
#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/free_proc.h"
#include "ds/list.h"
#include "ds/skiplist.h"
#include "runtime/fault.h"
#include "runtime/pool_alloc.h"
#include "runtime/trace.h"
#include "smr/leaky.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack {
namespace {

namespace fault = runtime::fault;
using fault::Site;

// Every test leaves the injector fully disarmed and the deferred list empty, so the
// whole suite can run in one process (plain ./fault_test) as well as one-per-process
// under ctest.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    DrainDeferred();
  }
  void TearDown() override { fault::DisarmAll(); }

  // Pops (and frees) anything a previous test's teardown left in the deferred list.
  static void DrainDeferred() {
    auto& deferred = core::DeferredFreeList::Instance();
    auto& pool = runtime::PoolAllocator::Instance();
    void* batch[64];
    std::size_t n = 0;
    while ((n = deferred.PopBatch(batch, 64)) != 0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (pool.OwnsLive(batch[i])) {
          pool.Free(batch[i]);
        }
      }
    }
  }
};

TEST_F(FaultTest, NthVisitFiresOnExactSchedule) {
  fault::ArmNthVisit(Site::kSplitsBump, /*first=*/3, /*period=*/2);
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) {
    fired.push_back(fault::ShouldFire(Site::kSplitsBump));
  }
  fault::Disarm(Site::kSplitsBump);
  const std::vector<bool> expected = {false, false, true, false, true,
                                      false, true,  false, true, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(fault::Fires(Site::kSplitsBump), 4u);
}

TEST_F(FaultTest, NthVisitWithZeroPeriodFiresOnce) {
  fault::ArmNthVisit(Site::kSplitsBump, /*first=*/2, /*period=*/0);
  int fires = 0;
  for (int i = 0; i < 20; ++i) {
    fires += fault::ShouldFire(Site::kSplitsBump) ? 1 : 0;
  }
  fault::Disarm(Site::kSplitsBump);
  EXPECT_EQ(fires, 1);
}

// Visits are counted per thread: every thread replays the same schedule from its own
// first visit, and a re-arm restarts the count.
TEST_F(FaultTest, SchedulesCountEachThreadsOwnVisits) {
  constexpr int kThreads = 4;
  constexpr int kVisits = 10;
  fault::ArmNthVisit(Site::kSplitsBump, /*first=*/3, /*period=*/0);
  std::atomic<bool> go{false};
  std::vector<std::vector<bool>> fired(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      runtime::ThreadScope scope;
      while (!go.load(std::memory_order_acquire)) {
        sched_yield();
      }
      for (int i = 0; i < kVisits; ++i) {
        fired[t].push_back(fault::ShouldFire(Site::kSplitsBump));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::vector<bool> expected(kVisits, false);
  expected[2] = true;  // each thread's third visit
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(fired[t], expected) << "thread " << t;
  }
  EXPECT_EQ(fault::Fires(Site::kSplitsBump), static_cast<uint64_t>(kThreads));

  // This thread visits twice, then the re-arm restarts its count.
  EXPECT_FALSE(fault::ShouldFire(Site::kSplitsBump));
  EXPECT_FALSE(fault::ShouldFire(Site::kSplitsBump));
  fault::ArmNthVisit(Site::kSplitsBump, /*first=*/3, /*period=*/0);
  EXPECT_FALSE(fault::ShouldFire(Site::kSplitsBump));
  EXPECT_FALSE(fault::ShouldFire(Site::kSplitsBump));
  EXPECT_TRUE(fault::ShouldFire(Site::kSplitsBump));
  EXPECT_EQ(fault::Fires(Site::kSplitsBump), 1u);
}

TEST_F(FaultTest, ProbabilityScheduleReplaysFromSeed) {
  auto run = [](uint64_t seed) {
    fault::ArmProbability(Site::kSplitsBump, 0.5, seed);
    std::vector<bool> fired;
    for (int i = 0; i < 128; ++i) {
      fired.push_back(fault::ShouldFire(Site::kSplitsBump));
    }
    fault::Disarm(Site::kSplitsBump);
    return fired;
  };
  const auto a = run(0x5eed);
  const auto b = run(0x5eed);
  EXPECT_EQ(a, b) << "same seed must replay the identical fire sequence";
  const int fires = static_cast<int>(std::count(a.begin(), a.end(), true));
  // p=0.5 over 128 visits: all-or-nothing outcomes have probability 2^-128.
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 128);
}

TEST_F(FaultTest, TidTargetingRestrictsFiring) {
  runtime::ThreadScope scope;
  fault::ArmGate(Site::kSplitsBump, /*tid=*/scope.tid() + 1);  // someone else
  EXPECT_FALSE(fault::ShouldFire(Site::kSplitsBump));
  fault::ArmGate(Site::kSplitsBump, /*tid=*/scope.tid());
  EXPECT_TRUE(fault::ShouldFire(Site::kSplitsBump));
  fault::Disarm(Site::kSplitsBump);
}

TEST_F(FaultTest, ForcedSoftAbortIsRecoveredBySplitEngine) {
  runtime::ThreadScope scope;
  smr::StackTrackSmr::Domain domain;
  core::StContext& ctx = domain.AcquireHandle();

  fault::ArmNthVisit(Site::kSoftTxAbort, /*first=*/1, /*period=*/0);
  const uint64_t oper_before = ctx.oper_counter.load(std::memory_order_acquire);
  const uint64_t aborts_before = ctx.stats.aborts_conflict;
  SMR_OP_BEGIN(ctx, 0);
  SMR_OP_END(ctx);
  fault::Disarm(Site::kSoftTxAbort);
  EXPECT_EQ(fault::Fires(Site::kSoftTxAbort), 1u);
  EXPECT_GT(ctx.stats.aborts_conflict, aborts_before)
      << "the injected abort must be visible in stats";
  EXPECT_GT(ctx.oper_counter.load(std::memory_order_acquire), oper_before)
      << "the operation must complete despite the forced abort";
}

TEST_F(FaultTest, ListSurvivesProbabilisticSoftAborts) {
  runtime::ThreadScope scope;
  auto& pool = runtime::PoolAllocator::Instance();
  const auto before = pool.GetStats();
  {
    core::StConfig config;
    config.max_free = 8;
    smr::StackTrackSmr::Domain domain(config);
    ds::LockFreeList<smr::StackTrackSmr> list;
    auto& h = domain.AcquireHandle();
    fault::ArmProbability(Site::kSoftTxAbort, 0.2, /*seed=*/0xabcd);
    for (uint64_t i = 0; i < 500; ++i) {
      const uint64_t key = 1 + (i % 32);
      if ((i & 1) == 0) {
        list.Insert(h, key, key);
      } else {
        list.Remove(h, key);
      }
    }
    fault::Disarm(Site::kSoftTxAbort);
    EXPECT_GT(fault::Fires(Site::kSoftTxAbort), 0u);
  }
  DrainDeferred();
  const auto after = pool.GetStats();
  EXPECT_EQ(after.live_objects, before.live_objects)
      << "forced aborts must not leak or double-free nodes";
}

// A target parked with its splits counter odd simulates a thread stalled (or killed)
// mid register exposure. The unbounded Algorithm 1 loop would spin forever; the
// bounded loop must give up after inspect_retry_cap tries and answer "live".
TEST_F(FaultTest, InspectRetryCapAnswersConservativelyLive) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.inspect_retry_cap = 4;
  smr::StackTrackSmr::Domain domain(config);
  core::StContext& reclaimer = domain.AcquireHandle();
  core::StContext target(/*tid=*/40, config);
  target.splits_seq.store(1, std::memory_order_release);  // odd: exposure in flight

  void* node = runtime::PoolAllocator::Instance().Alloc(64);
  const uint64_t capped_before = reclaimer.stats.scan_retry_capped;
  EXPECT_TRUE(core::InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node),
                                  64, false));
  EXPECT_GT(reclaimer.stats.scan_retry_capped, capped_before);

  target.splits_seq.store(2, std::memory_order_release);  // exposure finished
  EXPECT_FALSE(core::InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node),
                                   64, false));
  runtime::PoolAllocator::Instance().Free(node);
}

// Phantom splits-counter bumps (kSplitsBump firing on every inspection) force the
// seq-changed retry path to exhaust; the answer must again be conservative.
TEST_F(FaultTest, PhantomSplitsBumpExhaustsRetriesConservatively) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.inspect_retry_cap = 4;
  smr::StackTrackSmr::Domain domain(config);
  core::StContext& reclaimer = domain.AcquireHandle();
  core::StContext target(/*tid=*/40, config);

  void* node = runtime::PoolAllocator::Instance().Alloc(64);
  fault::ArmGate(Site::kSplitsBump);  // every inspection sees a phantom commit
  const uint64_t capped_before = reclaimer.stats.scan_retry_capped;
  EXPECT_TRUE(core::InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node),
                                  64, false));
  fault::Disarm(Site::kSplitsBump);
  EXPECT_GT(reclaimer.stats.scan_retry_capped, capped_before);
  EXPECT_FALSE(core::InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node),
                                   64, false));
  runtime::PoolAllocator::Instance().Free(node);
}

// A real committer parked mid-exposure (kExposeStall, after the splits counter went
// odd and before its registers reach the exposed file) holds the only copy of a root
// where no scanner can read it. Inspection must answer "live" at the retry cap and a
// root-table round must count itself incomplete and free nothing; once the committer
// resumes and ends its operation, the candidate is freed.
TEST_F(FaultTest, ParkedExposureKeepsCandidatesUntilTheCommitterResumes) {
  runtime::ThreadScope scope;
  auto& pool = runtime::PoolAllocator::Instance();
  core::StConfig config;
  config.initial_split_limit = 1;  // the first checkpoint commits, so it exposes
  config.inspect_retry_cap = 4;
  smr::StackTrackSmr::Domain domain(config);
  core::StContext& reclaimer = domain.AcquireHandle();
  void* const node = pool.Alloc(64);

  std::atomic<core::StContext*> victim_ctx{nullptr};
  std::atomic<bool> go{false};
  std::thread victim([&] {
    runtime::ThreadScope inner;
    core::StContext& ctx = domain.AcquireHandle();
    victim_ctx.store(&ctx, std::memory_order_release);
    while (!go.load(std::memory_order_acquire)) {
      sched_yield();
    }
    SMR_OP_BEGIN(ctx, 0);
    ctx.reg<void*>(0) = node;
    SMR_CHECKPOINT(ctx);  // parks inside ExposeRegisters until the gate opens
    SMR_OP_END(ctx);
  });
  while (victim_ctx.load(std::memory_order_acquire) == nullptr) {
    sched_yield();
  }
  core::StContext& target = *victim_ctx.load(std::memory_order_acquire);
  fault::ArmGate(Site::kExposeStall, target.tid());
  go.store(true, std::memory_order_release);
  bool parked = false;
  for (int waited_ms = 0; waited_ms < 5000 && !parked; ++waited_ms) {
    parked = fault::IsStalled(target.tid());
    if (!parked) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (parked) {
    EXPECT_EQ(target.splits_seq.load(std::memory_order_acquire) & 1, 1u);
    const uint64_t capped_before = reclaimer.stats.scan_retry_capped;
    EXPECT_TRUE(core::InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node),
                                    64, false))
        << "an exposure in flight must answer live";
    EXPECT_GT(reclaimer.stats.scan_retry_capped, capped_before);

    const uint64_t incomplete_before = reclaimer.stats.snapshot_incomplete;
    reclaimer.MutableFreeSet().push_back(node);
    core::ScanAndFreeHashed(reclaimer);
    EXPECT_GT(reclaimer.stats.snapshot_incomplete, incomplete_before);
    EXPECT_TRUE(pool.OwnsLive(node)) << "freed a root the parked committer holds";
    EXPECT_EQ(reclaimer.free_set_size(), 1u);
  }
  fault::ReleaseGate(Site::kExposeStall);
  victim.join();
  ASSERT_TRUE(parked) << "the victim never parked at kExposeStall";
  EXPECT_EQ(reclaimer.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(node));
}

// When every scan answers "live" (injected phantom bumps), survivors must spill to
// the bounded deferred list instead of growing the local free set without limit, and
// everything must be reclaimed once the fault clears.
TEST_F(FaultTest, BackPressureSpillsToDeferredAndDrainsAfterFault) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.max_free = 4;
  config.inspect_retry_cap = 2;
  config.free_highwater_mult = 4;  // high water = 16
  smr::StackTrackSmr::Domain domain(config);
  core::StContext& ctx = domain.AcquireHandle();
  // A second registered context gives the scan a thread to inspect; without one every
  // candidate is trivially dead and nothing survives.
  std::atomic<bool> park{true};
  std::atomic<bool> helper_up{false};
  std::thread helper([&] {
    runtime::ThreadScope inner;
    core::StContext other(inner.tid(), config);
    helper_up.store(true, std::memory_order_release);
    while (park.load(std::memory_order_acquire)) {
      sched_yield();
    }
  });
  while (!helper_up.load(std::memory_order_acquire)) {
    sched_yield();
  }

  auto& pool = runtime::PoolAllocator::Instance();
  const auto pool_before = pool.GetStats();
  fault::ArmGate(Site::kSplitsBump);
  constexpr int kNodes = 64;
  for (int i = 0; i < kNodes; ++i) {
    ctx.MutableFreeSet().push_back(pool.Alloc(32));
    ctx.NoteFreeSetSize();
    core::ScanAndFree(ctx);  // every candidate answers conservative-live
    EXPECT_LE(ctx.free_set_size(), ctx.high_water() + config.max_free)
        << "free set must stay bounded by the high-water mark";
  }
  fault::Disarm(Site::kSplitsBump);
  EXPECT_GT(ctx.stats.backpressure_spills, 0u);
  EXPECT_GT(ctx.stats.backpressure_raises, 0u);
  EXPECT_GT(ctx.scan_threshold(), config.max_free);
  EXPECT_GT(core::DeferredFreeList::Instance().Size(), 0u);

  // Fault cleared: drain the local set and adopt everything back from deferred.
  ctx.HandOffFreeSet();
  EXPECT_EQ(core::DeferredFreeList::Instance().Size(), 0u);
  EXPECT_EQ(ctx.free_set_size(), 0u);
  const auto pool_after = pool.GetStats();
  EXPECT_EQ(pool_after.live_objects, pool_before.live_objects);
  // With the backlog gone the scan trigger must decay back to max_free.
  for (int i = 0; i < 8; ++i) {
    core::ScanAndFree(ctx);
  }
  EXPECT_EQ(ctx.scan_threshold(), config.max_free);

  park.store(false, std::memory_order_release);
  helper.join();
}

// The watchdog flags a thread that sits mid-operation (op_active set) with a frozen
// oper_counter for watchdog_deadline_ns, and clears it on progress.
TEST_F(FaultTest, WatchdogFlagsAndClearsStalledThread) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.watchdog_deadline_ns = 1'000'000;
  const auto past_deadline = std::chrono::nanoseconds(2 * config.watchdog_deadline_ns);
  smr::StackTrackSmr::Domain domain(config);
  core::StContext& reclaimer = domain.AcquireHandle();
  constexpr uint32_t kVictimTid = 41;
  core::StContext victim(kVictimTid, config);
  victim.op_active.store(1, std::memory_order_release);  // frozen mid-operation

  // Rounds that first see a stalled thread, then see it again past the deadline.
  auto rounds_spanning_deadline = [&] {
    core::ScanAndFree(reclaimer);
    std::this_thread::sleep_for(past_deadline);
    core::ScanAndFree(reclaimer);
  };

  // The watchdog only walks tids below the registry watermark; a synthetic context
  // above it needs real registered threads to raise the watermark. Simpler: drive
  // the rounds and query the mask for a real-tid context instead.
  rounds_spanning_deadline();
  // kVictimTid is above the watermark, so it must NOT be reported...
  EXPECT_EQ(core::StalledThreadMask() & (uint64_t{1} << kVictimTid), 0u);

  // ...but a registered thread that stalls mid-op is. Park a real thread with
  // op_active raised and tick the watchdog.
  std::atomic<bool> park{true};
  std::atomic<uint32_t> victim_tid{runtime::kInvalidThreadId};
  std::thread stalled([&] {
    runtime::ThreadScope inner;
    core::StContext& ctx = domain.AcquireHandle();
    ctx.op_active.store(1, std::memory_order_release);
    victim_tid.store(inner.tid(), std::memory_order_release);
    while (park.load(std::memory_order_acquire)) {
      sched_yield();
    }
    ctx.op_active.store(0, std::memory_order_release);
  });
  while (victim_tid.load(std::memory_order_acquire) == runtime::kInvalidThreadId) {
    sched_yield();
  }
  const uint64_t reports_before = reclaimer.stats.watchdog_reports;
  rounds_spanning_deadline();
  const uint64_t bit = uint64_t{1} << victim_tid.load(std::memory_order_acquire);
  EXPECT_NE(core::StalledThreadMask() & bit, 0u);
  EXPECT_GT(reclaimer.stats.watchdog_reports, reports_before);

  park.store(false, std::memory_order_release);
  stalled.join();
  core::ScanAndFree(reclaimer);  // one more round observes op_active == 0
  EXPECT_EQ(core::StalledThreadMask() & bit, 0u);
}

// An ordinary operation can span many rounds: every thread runs one per max_free
// retires. Under the default deadline, a registered thread held inside one operation
// while 32 back-to-back rounds run (far quicker than the deadline) is not reported.
TEST_F(FaultTest, WatchdogIgnoresShortOperationsAcrossManyRounds) {
  runtime::ThreadScope scope;
  smr::StackTrackSmr::Domain domain;
  core::StContext& reclaimer = domain.AcquireHandle();
  std::atomic<bool> hold{true};
  std::atomic<uint32_t> worker_tid{runtime::kInvalidThreadId};
  std::thread worker([&] {
    runtime::ThreadScope inner;
    core::StContext& ctx = domain.AcquireHandle();
    ctx.op_active.store(1, std::memory_order_release);  // inside one operation
    worker_tid.store(inner.tid(), std::memory_order_release);
    while (hold.load(std::memory_order_acquire)) {
      sched_yield();
    }
    ctx.op_active.store(0, std::memory_order_release);
  });
  while (worker_tid.load(std::memory_order_acquire) == runtime::kInvalidThreadId) {
    sched_yield();
  }
  const uint64_t reports_before = reclaimer.stats.watchdog_reports;
  const uint64_t start_ns = runtime::trace::NowNanos();
  for (int i = 0; i < 32; ++i) {
    core::ScanAndFree(reclaimer);
  }
  const uint64_t elapsed_ns = runtime::trace::NowNanos() - start_ns;
  hold.store(false, std::memory_order_release);
  worker.join();
  ASSERT_LT(elapsed_ns, reclaimer.config().watchdog_deadline_ns)
      << "the host stalled the rounds past the deadline itself";
  EXPECT_EQ(reclaimer.stats.watchdog_reports, reports_before);
  EXPECT_EQ(core::StalledThreadMask() &
                (uint64_t{1} << worker_tid.load(std::memory_order_acquire)),
            0u);
}

// Candidates parked on the deferred list (a back-pressure spill or an exiting
// thread's handoff) must be adopted by ordinary threshold rounds, not only by drains
// or the next thread exit: a healthy thread that keeps retiring drains the list.
TEST_F(FaultTest, ThresholdRoundsAdoptDeferredCandidates) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.max_free = 4;
  smr::StackTrackSmr::Domain domain(config);
  core::StContext& ctx = domain.AcquireHandle();
  auto& pool = runtime::PoolAllocator::Instance();
  auto& deferred = core::DeferredFreeList::Instance();
  const auto pool_before = pool.GetStats();
  constexpr std::size_t kParked = 8;
  void* parked[kParked];
  for (void*& p : parked) {
    p = pool.Alloc(32);
  }
  ASSERT_EQ(deferred.Push(parked, kParked), kParked);

  constexpr uint32_t kRounds = 16;
  for (uint32_t i = 0; i < kRounds * config.max_free; ++i) {
    ctx.Free(pool.Alloc(32));  // every max_free-th call runs a threshold round
  }
  EXPECT_GE(ctx.stats.scan_calls, kRounds);
  EXPECT_EQ(ctx.stats.deferred_adopted, kParked);
  EXPECT_EQ(deferred.Size(), 0u) << "threshold rounds left parked candidates behind";
  // Freed memory is recycled by the loop's own allocations, so count instead of
  // probing addresses: only the retirements since the last round are still live.
  EXPECT_EQ(pool.GetStats().live_objects, pool_before.live_objects + ctx.free_set_size());
}

// An exiting thread must hand unreclaimed candidates to the deferred list (via the
// registry exit hook) instead of stranding them behind a dead thread id.
TEST_F(FaultTest, ExitingThreadHandsFreeSetToDeferredList) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.max_free = 4;
  config.inspect_retry_cap = 2;
  smr::StackTrackSmr::Domain domain(config);
  core::StContext& main_ctx = domain.AcquireHandle();  // inspected by the worker
  (void)main_ctx;

  auto& pool = runtime::PoolAllocator::Instance();
  const auto pool_before = pool.GetStats();
  fault::ArmGate(Site::kSplitsBump);  // worker's exit scan keeps everything
  std::thread worker([&] {
    runtime::ThreadScope inner;
    core::StContext& ctx = domain.AcquireHandle();
    for (int i = 0; i < 8; ++i) {
      ctx.MutableFreeSet().push_back(pool.Alloc(32));
    }
    // ThreadScope destruction fires the registry exit hook, which flushes what it can
    // (here: nothing, every inspection is conservative) and hands the rest over.
  });
  worker.join();
  fault::Disarm(Site::kSplitsBump);
  EXPECT_GT(core::DeferredFreeList::Instance().Size(), 0u);

  // Any later scan by a live thread adopts and reclaims the orphans.
  core::StContext& reclaimer = domain.AcquireHandle();
  reclaimer.HandOffFreeSet();
  EXPECT_EQ(core::DeferredFreeList::Instance().Size(), 0u);
  EXPECT_EQ(pool.GetStats().live_objects, pool_before.live_objects);
}

// The skip list's removal winner retires its tower once an unlink pass no longer sees
// it. A reinsertion of the same key that read the tower unmarked can snip it at
// level 0 and link itself *ahead* of it at level 1; a pass that stops at the first
// key >= the search key then stops at the reinsertion and retires a tower that level
// 1 still links. The remover sleeps on the first hop of its first unlink pass while
// the test performs that reinsertion by hand.
TEST_F(FaultTest, SkipListUnlinkPassWalksPastReinsertedKey) {
  using SkipList = ds::LockFreeSkipList<smr::LeakySmr>;
  using SkipNode = SkipList::Node;
  SkipList list;
  SkipNode* a = SkipList::NewNode(5, 50, 2);
  SkipNode* x = SkipList::NewNode(7, 70, 2);
  for (uint32_t l = 0; l < 2; ++l) {  // head -> a(5) -> x(7) at levels 0-1
    a->next[l].store(x);
    list.head()->next[l].store(a);
  }

  smr::LeakySmr::Domain domain;
  std::atomic<uint32_t> remover_tid{fault::kAnyThread};
  std::atomic<bool> go{false};
  std::atomic<bool> removed{false};
  std::thread remover([&] {
    runtime::ThreadScope scope;
    auto& h = domain.AcquireHandle();
    remover_tid.store(scope.tid());
    while (!go.load()) {
      sched_yield();
    }
    removed.store(list.Remove(h, 7));
  });
  while (remover_tid.load() == fault::kAnyThread) {
    sched_yield();
  }
  // Visits 1-3 are the search's hops (a and x at level 1, x at level 0); visit 4 is
  // the unlink pass's first hop, after the remover has marked x at both levels.
  fault::ArmNthVisit(Site::kThreadStall, /*first=*/4, /*period=*/0,
                     /*payload=*/200000, remover_tid.load());
  go.store(true);
  while (fault::Fires(Site::kThreadStall) == 0) {
    sched_yield();
  }
  SkipNode* y = SkipList::NewNode(7, 71, 2);  // the reinsertion, during the sleep
  y->next[1].store(x);
  a->next[1].store(y);  // level 1: a -> y -> x
  a->next[0].store(y);  // level 0: x snipped, a -> y
  const bool linked_during_stall = !removed.load();
  remover.join();

  ASSERT_TRUE(linked_during_stall) << "the 200 ms stall ended before the reinsertion";
  EXPECT_TRUE(removed.load());
  for (uint32_t l = 0; l < 2; ++l) {
    for (SkipNode* n = list.head(); n != nullptr;
         n = ds::detail::Unmarked(n->next[l].load())) {
      EXPECT_NE(ds::detail::Unmarked(n->next[l].load()), x)
          << "retired tower still linked at level " << l;
    }
  }
  runtime::PoolAllocator::Instance().Free(x);  // leaked by the scheme, unreachable
}

// Under the software backend a tracked-frame store inside a segment is a plain store,
// so a round sweeping the frame sees the segment's uncommitted word. An abort then
// restores the committed one from the replay snapshot: the round must have counted
// the snapshot as a root, or the restored pointer names freed memory. The victim
// commits x into a frame slot at a checkpoint, overwrites the slot in its next
// segment and waits there while the main thread unlinks x and runs one round.
TEST_F(FaultTest, AbortRestoresOnlyRootsTheRoundKeptAlive) {
  auto& pool = runtime::PoolAllocator::Instance();
  for (const bool hashed : {true, false}) {
    SCOPED_TRACE(hashed ? "root-table round" : "per-candidate round");
    runtime::ThreadScope scope;
    core::StConfig config;
    config.initial_split_limit = 1;  // the first checkpoint commits the segment
    config.max_free = 1;             // each Free runs one round
    config.hashed_scan = hashed;
    smr::StackTrackSmr::Domain domain(config);
    core::StContext& main_ctx = domain.AcquireHandle();
    void* const x = pool.Alloc(32);
    std::atomic<void*> head{x};
    std::atomic<bool> overwritten{false};
    std::atomic<bool> round_done{false};
    uintptr_t restored = 0;
    bool restored_live = false;

    std::thread victim([&] {
      runtime::ThreadScope inner;
      core::StContext& ctx = domain.AcquireHandle();
      core::TrackedFrame<1> frame(ctx);
      volatile int attempts = 0;
      SMR_OP_BEGIN(ctx, 0);
      frame.ptr<void*>(0) = ctx.Load(head);
      SMR_CHECKPOINT(ctx);  // commits x as a root and arms the next segment
      attempts = attempts + 1;
      if (attempts == 1) {
        frame.words[0] = 0;
        overwritten.store(true, std::memory_order_release);
        while (!round_done.load(std::memory_order_acquire)) {
          sched_yield();
        }
        htm::TxAbort(htm::AbortCause::kExplicit);
      }
      restored = frame.words[0];
      restored_live = pool.OwnsLive(x);
      SMR_OP_END(ctx);
    });
    while (!overwritten.load(std::memory_order_acquire)) {
      sched_yield();
    }
    head.store(nullptr);
    const uint64_t rounds_before = main_ctx.stats.scan_calls;
    main_ctx.Free(x);
    round_done.store(true, std::memory_order_release);
    victim.join();

    EXPECT_EQ(main_ctx.stats.scan_calls, rounds_before + 1);
    EXPECT_EQ(restored, reinterpret_cast<uintptr_t>(x));
    EXPECT_TRUE(restored_live) << "the round freed a root the abort restored";
    EXPECT_EQ(main_ctx.FlushFrees(), 0u) << "x must be freed once the victim's op ends";
  }
}

// Acceptance scenario from the issue: a 4-thread list workload in which one thread is
// parked indefinitely mid-operation must still complete, with every surviving thread's
// free set bounded by the high-water mark and the deferred list bounded by its
// capacity; once the stall clears, everything is reclaimed.
TEST_F(FaultTest, StalledThreadWorkloadStaysBoundedAndDrains) {
  auto& pool = runtime::PoolAllocator::Instance();
  const auto pool_before = pool.GetStats();
  {
    core::StConfig config;
    config.max_free = 8;
    config.inspect_retry_cap = 4;
    config.free_highwater_mult = 4;  // high water = 32
    config.watchdog_deadline_ns = 1'000'000;
    smr::StackTrackSmr::Domain domain(config);
    ds::LockFreeList<smr::StackTrackSmr> list;

    // The victim publishes its tid, gets gated at its next preemption point (inside a
    // list operation, frames live), and parks there until released.
    std::atomic<uint32_t> victim_tid{runtime::kInvalidThreadId};
    std::atomic<bool> stop_victim{false};
    std::thread victim([&] {
      runtime::ThreadScope inner;
      auto& h = domain.AcquireHandle();
      victim_tid.store(inner.tid(), std::memory_order_release);
      uint64_t i = 0;
      while (!stop_victim.load(std::memory_order_acquire)) {
        list.Insert(h, 1 + (i++ % 8), 7);
      }
    });
    while (victim_tid.load(std::memory_order_acquire) == runtime::kInvalidThreadId) {
      sched_yield();
    }
    fault::ArmGate(Site::kThreadStall, victim_tid.load(std::memory_order_acquire));
    while (!fault::IsStalled(victim_tid.load(std::memory_order_acquire))) {
      sched_yield();
    }

    // Three workers churn the list while the victim is parked mid-operation.
    constexpr int kWorkers = 3;
    std::vector<uint64_t> peaks(kWorkers, 0);
    std::vector<std::thread> workers;
    const uint32_t high_water = config.free_highwater_mult * config.max_free;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        runtime::ThreadScope inner;
        auto& h = domain.AcquireHandle();
        for (uint64_t i = 0; i < 3000; ++i) {
          const uint64_t key = 1 + ((i * 7 + w) % 64);
          if ((i & 1) == 0) {
            list.Insert(h, key, key);
          } else {
            list.Remove(h, key);
          }
        }
        peaks[w] = h.stats.free_set_peak;
      });
    }
    for (auto& t : workers) {
      t.join();  // completion itself is the liveness property under a stalled peer
    }
    // The workers' rounds saw the victim in flight; one more round past the
    // deadline must report it, however quickly the churn finished.
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(2 * config.watchdog_deadline_ns));
    std::thread([&] {
      runtime::ThreadScope inner;
      core::WatchdogTick(domain.AcquireHandle());
    }).join();
    for (int w = 0; w < kWorkers; ++w) {
      EXPECT_LE(peaks[w], high_water + config.max_free)
          << "worker " << w << " free set exceeded the documented bound";
    }
    EXPECT_LE(core::DeferredFreeList::Instance().Size(),
              core::DeferredFreeList::kCapacity);
    EXPECT_NE(core::StalledThreadMask() &
                  (uint64_t{1} << victim_tid.load(std::memory_order_acquire)),
              0u)
        << "the watchdog should have reported the parked victim";

    fault::ReleaseGate(Site::kThreadStall);
    stop_victim.store(true, std::memory_order_release);
    victim.join();
    // Domain teardown rescans with the stall cleared: local sets and the deferred
    // list must drain completely.
  }
  EXPECT_EQ(core::DeferredFreeList::Instance().Size(), 0u);
  const auto pool_after = pool.GetStats();
  EXPECT_EQ(pool_after.live_objects, pool_before.live_objects)
      << "nodes stranded after the stall cleared";
}

// Regression: a thread that abandons its workload loop and exits without any explicit
// cleanup must still have its magazines and free set adopted — the registry exit-hook
// chain is the only teardown that runs, exactly as in the harness death scenarios. A
// victim whose exit scan is fully conservative (kSplitsBump gate) strands its free
// set in the deferred list; its magazine-cached blocks must flow back to the shared
// free lists.
TEST_F(FaultTest, AbandoningThreadHandsOverMagazinesAndFreeSet) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.max_free = 4;
  config.inspect_retry_cap = 2;
  smr::StackTrackSmr::Domain domain(config);
  domain.AcquireHandle();  // main's context gives the exit scan a peer to inspect

  auto& pool = runtime::PoolAllocator::Instance();
  const auto pool_before = pool.GetStats();
  constexpr int kFreeSet = 8;
  constexpr int kCached = 8;
  void* free_set_blocks[kFreeSet] = {};

  fault::ArmGate(Site::kSplitsBump);  // the victim's exit scan keeps everything
  std::atomic<bool> ready{false};
  std::atomic<bool> abandon{false};
  std::thread victim([&] {
    runtime::ThreadScope inner;
    core::StContext& ctx = domain.AcquireHandle();
    // Populate this thread's magazine with cached free blocks...
    void* scratch[kCached];
    for (void*& s : scratch) {
      s = pool.Alloc(96);
    }
    for (void* s : scratch) {
      pool.Free(s);
    }
    // ...and its free set with live retirements.
    for (void*& b : free_set_blocks) {
      b = pool.Alloc(32);
      ctx.MutableFreeSet().push_back(b);
    }
    ready.store(true, std::memory_order_release);
    while (!abandon.load(std::memory_order_acquire)) {
      sched_yield();
    }
    // Abandon the workload: return with no explicit cleanup. ThreadScope
    // deregistration (exit-hook chain: context reap + magazine flush) is all the
    // teardown there is.
  });
  while (!ready.load(std::memory_order_acquire)) {
    sched_yield();
  }
  abandon.store(true, std::memory_order_release);
  victim.join();
  fault::Disarm(Site::kSplitsBump);

  // Free set adopted: the conservative exit scan stranded it in the deferred list;
  // any live thread's next handoff reclaims it.
  EXPECT_GT(core::DeferredFreeList::Instance().Size(), 0u);
  core::StContext& reclaimer = domain.AcquireHandle();
  reclaimer.HandOffFreeSet();
  EXPECT_EQ(core::DeferredFreeList::Instance().Size(), 0u);
  for (void* b : free_set_blocks) {
    EXPECT_FALSE(pool.OwnsLive(b)) << "free-set block not reclaimed after adoption";
  }
  EXPECT_EQ(pool.GetStats().live_objects, pool_before.live_objects);

  // Magazines adopted: the victim's cached blocks went back to the shared lists, so
  // re-allocating the same footprint reuses them instead of mapping new memory.
  const std::size_t mapped_before = pool.GetStats().bytes_mapped;
  void* reuse[kCached];
  for (void*& r : reuse) {
    r = pool.Alloc(96);
  }
  EXPECT_EQ(pool.GetStats().bytes_mapped, mapped_before)
      << "reallocating the dead thread's footprint should not map new memory";
  for (void* r : reuse) {
    pool.Free(r);
  }
}

}  // namespace
}  // namespace stacktrack
