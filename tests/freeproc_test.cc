// Unit tests for the FREE procedure (Algorithm 1): root scanning across frames,
// registers and reference sets, the consistency protocol, interior/tagged pointer
// matching, and end-to-end liveness decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/free_proc.h"
#include "ds/list.h"
#include "runtime/pool_alloc.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::core {
namespace {

class FreeProcTest : public ::testing::Test {
 protected:
  runtime::ThreadScope scope_;
  smr::StackTrackSmr::Domain domain_;

  // A second context standing in for another thread (InspectThread only looks at the
  // target's published state, so constructing it on this thread is fine).
  static constexpr uint32_t kFakeTid = 40;
};

TEST_F(FreeProcTest, FindsPointerInTrackedFrame) {
  StContext& reclaimer = domain_.AcquireHandle();
  StContext target(kFakeTid, StConfig{});
  TrackedFrame<4> frame(target);
  void* node = runtime::PoolAllocator::Instance().Alloc(64);

  frame.words[2] = reinterpret_cast<uintptr_t>(node);
  EXPECT_TRUE(InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node), 64, false));
  frame.words[2] = 0;
  EXPECT_FALSE(InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node), 64, false));
  runtime::PoolAllocator::Instance().Free(node);
}

TEST_F(FreeProcTest, FindsInteriorAndTaggedPointers) {
  StContext& reclaimer = domain_.AcquireHandle();
  StContext target(kFakeTid, StConfig{});
  TrackedFrame<4> frame(target);
  void* node = runtime::PoolAllocator::Instance().Alloc(64);
  const uintptr_t base = reinterpret_cast<uintptr_t>(node);

  frame.words[0] = base + 24;  // interior pointer (array element / member address)
  EXPECT_TRUE(InspectThread(reclaimer, target, base, 64, false));
  frame.words[0] = base | 1;  // mark-tagged pointer
  EXPECT_TRUE(InspectThread(reclaimer, target, base, 64, false));
  frame.words[0] = base + 64;  // one past the end: a different object
  EXPECT_FALSE(InspectThread(reclaimer, target, base, 64, false));
  frame.words[0] = 0;
  runtime::PoolAllocator::Instance().Free(node);
}

TEST_F(FreeProcTest, FindsPointerInExposedRegisters) {
  StContext& reclaimer = domain_.AcquireHandle();
  StContext target(kFakeTid, StConfig{});
  void* node = runtime::PoolAllocator::Instance().Alloc(64);

  // Only the *exposed* file is scanned; live register values are private until a
  // segment commit copies them out (the paper's EXPOSE_REGISTERS).
  target.reg<void*>(1) = node;
  EXPECT_FALSE(InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node), 64, false));
  target.exposed_regs[1].store(reinterpret_cast<uintptr_t>(node), std::memory_order_release);
  EXPECT_TRUE(InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node), 64, false));
  target.exposed_regs[1].store(0, std::memory_order_release);
  runtime::PoolAllocator::Instance().Free(node);
}

TEST_F(FreeProcTest, RefSetConsultedOnlyWhenRequested) {
  StContext& reclaimer = domain_.AcquireHandle();
  StContext target(kFakeTid, StConfig{});
  void* node = runtime::PoolAllocator::Instance().Alloc(64);

  target.ref_set.Add(reinterpret_cast<uintptr_t>(node));
  EXPECT_FALSE(InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node), 64,
                             /*check_refset=*/false));
  EXPECT_TRUE(InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node), 64,
                            /*check_refset=*/true));
  target.ref_set.Clear();
  EXPECT_FALSE(InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node), 64, true));
  runtime::PoolAllocator::Instance().Free(node);
}

TEST_F(FreeProcTest, RefSetTombstoneRemovesEntry) {
  RefSet refs;
  const uint32_t slot = refs.Add(0x1000);
  refs.Add(0x2000);
  EXPECT_TRUE(refs.ContainsRange(0x1000, 8));
  refs.Tombstone(slot);
  EXPECT_FALSE(refs.ContainsRange(0x1000, 8));
  EXPECT_TRUE(refs.ContainsRange(0x2000, 8));
  refs.Clear();
  EXPECT_FALSE(refs.ContainsRange(0x2000, 8));
  EXPECT_EQ(refs.size(), 0u);
}

TEST_F(FreeProcTest, CompletedOperationShortCircuitsToDead) {
  // The scanner must stay parked on the odd seqlock until the completer's bump. The
  // default retry cap can expire first on a loaded or single-CPU machine, turning the
  // expected "dead" into a conservative "live" — so make the budget effectively
  // unbounded and let the oper_counter change be the only exit.
  StConfig config;
  config.inspect_retry_cap = UINT32_MAX;
  smr::StackTrackSmr::Domain domain(config);
  StContext& reclaimer = domain.AcquireHandle();
  StContext target(kFakeTid, StConfig{});
  TrackedFrame<2> frame(target);
  void* node = runtime::PoolAllocator::Instance().Alloc(64);
  frame.words[0] = reinterpret_cast<uintptr_t>(node);

  // Mid-scan operation completion: an odd seqlock parks the scanner; an oper_counter
  // bump from another thread while it waits must release it with "dead".
  target.splits_seq.store(1, std::memory_order_release);  // exposure "in flight"
  std::thread completer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    target.oper_counter.fetch_add(1, std::memory_order_release);
  });
  // Algorithm 1 lines 25-29: the op completed, so its roots are dead even though the
  // frame still physically holds the pointer.
  EXPECT_FALSE(InspectThread(reclaimer, target, reinterpret_cast<uintptr_t>(node), 64, false));
  completer.join();
  target.splits_seq.store(2, std::memory_order_release);
  frame.words[0] = 0;
  runtime::PoolAllocator::Instance().Free(node);
}

TEST_F(FreeProcTest, ScanAndFreeFreesDeadAndKeepsLive) {
  StContext& reclaimer = domain_.AcquireHandle();
  // The target must sit below the registry watermark to be visited by the full scan,
  // so claim a real slot for it (a thread may hold several slots in tests).
  const uint32_t target_tid = runtime::ThreadRegistry::Instance().RegisterCurrentThread();
  StContext target(target_tid, StConfig{});
  TrackedFrame<2> frame(target);
  auto& pool = runtime::PoolAllocator::Instance();
  void* live_node = pool.Alloc(64);
  void* dead_node = pool.Alloc(64);
  frame.words[0] = reinterpret_cast<uintptr_t>(live_node);

  reclaimer.MutableFreeSet().push_back(live_node);
  reclaimer.MutableFreeSet().push_back(dead_node);
  ScanAndFree(reclaimer);
  EXPECT_TRUE(pool.OwnsLive(live_node));    // pinned by the target's frame
  EXPECT_FALSE(pool.OwnsLive(dead_node));   // unreferenced -> freed
  EXPECT_EQ(reclaimer.free_set_size(), 1u);  // survivor stays buffered

  frame.words[0] = 0;
  ScanAndFree(reclaimer);
  EXPECT_FALSE(pool.OwnsLive(live_node));  // released -> freed on the next scan
  EXPECT_EQ(reclaimer.free_set_size(), 0u);
  runtime::ThreadRegistry::Instance().Deregister(target_tid);
}

TEST_F(FreeProcTest, FreedMemoryIsQuarantinedBeforeReuse) {
  StContext& reclaimer = domain_.AcquireHandle();
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(64);
  const uint64_t stripe_before = htm::soft::StripeValueOf(node);
  reclaimer.MutableFreeSet().push_back(node);
  ScanAndFree(reclaimer);
  EXPECT_FALSE(pool.OwnsLive(node));
  // The node's stripe version advanced, so any in-flight reader of the node aborts.
  EXPECT_NE(htm::soft::StripeValueOf(node), stripe_before);
}

// The max_free-th Free runs one round over the batch. With one registered peer, the
// default round (the §5.2 root table) sweeps that peer once; Algorithm 1's
// per-candidate round (hashed_scan = false) sweeps it once per candidate.
TEST_F(FreeProcTest, MaxFreeThresholdTriggersScan) {
  const uint32_t peer_tid = runtime::ThreadRegistry::Instance().RegisterCurrentThread();
  auto threshold_round = [peer_tid](const StConfig& config) {
    smr::StackTrackSmr::Domain domain(config);
    StContext& ctx = domain.AcquireHandle();
    StContext peer(peer_tid, config);
    auto& pool = runtime::PoolAllocator::Instance();
    const auto before = pool.GetStats();
    for (uint32_t i = 0; i < config.max_free; ++i) {
      ctx.Free(pool.Alloc(32));
    }
    const auto after = pool.GetStats();
    EXPECT_EQ(after.total_frees - before.total_frees, config.max_free);  // one batch
    EXPECT_EQ(ctx.stats.scan_calls, 1u);
    return ctx.stats.scan_thread_inspects;
  };
  StConfig config;
  config.max_free = 4;
  EXPECT_EQ(threshold_round(config), 1u) << "the default round sweeps each peer once";
  config.hashed_scan = false;
  EXPECT_EQ(threshold_round(config), 4u) << "Algorithm 1 sweeps the peer per candidate";
  runtime::ThreadRegistry::Instance().Deregister(peer_tid);
}

TEST_F(FreeProcTest, HashedScanMatchesPerCandidateScan) {
  StContext& reclaimer = domain_.AcquireHandle();
  const uint32_t target_tid = runtime::ThreadRegistry::Instance().RegisterCurrentThread();
  {
    StContext target(target_tid, StConfig{});
    TrackedFrame<4> frame(target);
    auto& pool = runtime::PoolAllocator::Instance();
    void* pinned_exact = pool.Alloc(64);
    void* pinned_interior = pool.Alloc(64);
    void* pinned_tagged = pool.Alloc(64);
    void* dead_a = pool.Alloc(64);
    void* dead_b = pool.Alloc(64);
    frame.words[0] = reinterpret_cast<uintptr_t>(pinned_exact);
    frame.words[1] = reinterpret_cast<uintptr_t>(pinned_interior) + 16;
    frame.words[2] = reinterpret_cast<uintptr_t>(pinned_tagged) | 1;

    reclaimer.MutableFreeSet() = {pinned_exact, dead_a, pinned_interior, dead_b,
                                  pinned_tagged};
    ScanAndFreeHashed(reclaimer);
    EXPECT_TRUE(pool.OwnsLive(pinned_exact));
    EXPECT_TRUE(pool.OwnsLive(pinned_interior));
    EXPECT_TRUE(pool.OwnsLive(pinned_tagged));
    EXPECT_FALSE(pool.OwnsLive(dead_a));
    EXPECT_FALSE(pool.OwnsLive(dead_b));
    EXPECT_EQ(reclaimer.free_set_size(), 3u);

    frame.words[0] = frame.words[1] = frame.words[2] = 0;
    ScanAndFreeHashed(reclaimer);
    EXPECT_EQ(reclaimer.free_set_size(), 0u);
    EXPECT_FALSE(pool.OwnsLive(pinned_exact));
  }
  runtime::ThreadRegistry::Instance().Deregister(target_tid);
}

// Both rounds under list churn with exact live-object accounting: the default root
// table and Algorithm 1's per-candidate round, which the typed scheme suites (default
// StConfig) no longer run.
class FreeProcScanModeTest : public FreeProcTest,
                             public ::testing::WithParamInterface<bool> {};

TEST_P(FreeProcScanModeTest, EndToEndUnderChurn) {
  auto& pool = runtime::PoolAllocator::Instance();
  const auto before = pool.GetStats();
  {
    StConfig config;
    config.hashed_scan = GetParam();
    config.max_free = 8;
    smr::StackTrackSmr::Domain domain(config);
    ds::LockFreeList<smr::StackTrackSmr> list;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        runtime::ThreadScope scope;
        auto& h = domain.AcquireHandle();
        runtime::Xorshift128 rng(0x4a5 ^ t);
        for (int i = 0; i < 4000; ++i) {
          const uint64_t key = 1 + rng.NextBounded(64);
          if (rng.NextBool(0.5)) {
            list.Insert(h, key, key);
          } else {
            list.Remove(h, key);
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }
  EXPECT_EQ(pool.GetStats().live_objects, before.live_objects);
}

INSTANTIATE_TEST_SUITE_P(ScanModes, FreeProcScanModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "hashed" : "per_candidate";
                         });

// Concurrent producers pushing against concurrent consumers popping, with exact
// accounting: Push consumes a prefix and reports how much, so every accepted pointer
// must come back out exactly once — nothing lost, nothing duplicated, nothing
// invented — and the bounded capacity must hold throughout.
TEST_F(FreeProcTest, DeferredFreeListConcurrentPushPopAccounting) {
  auto& list = DeferredFreeList::Instance();
  ASSERT_EQ(list.Size(), 0u) << "a previous test left candidates behind";

  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr uint32_t kPerProducer = 3000;  // 12000 offered vs capacity 4096: Push
                                           // rejections are part of the scenario
  std::vector<std::vector<void*>> accepted(kProducers);
  std::vector<std::vector<void*>> popped(kConsumers);
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      runtime::Xorshift128 rng(0x9e1 ^ static_cast<uint64_t>(p));
      uint32_t next = 0;
      while (next < kPerProducer) {
        void* chunk[16];
        const uint32_t want =
            std::min<uint32_t>(1 + rng.NextBounded(16), kPerProducer - next);
        for (uint32_t i = 0; i < want; ++i) {
          // Synthetic, never-dereferenced markers, unique across (producer, index).
          chunk[i] = reinterpret_cast<void*>(
              uintptr_t{0x100000} + ((uintptr_t(p) << 16 | (next + i)) << 3));
        }
        const std::size_t took = list.Push(chunk, want);
        accepted[p].insert(accepted[p].end(), chunk, chunk + took);
        next += want;
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      while (true) {
        void* batch[32];
        const std::size_t n = list.PopBatch(batch, 32);
        if (n != 0) {
          popped[c].insert(popped[c].end(), batch, batch + n);
        } else if (done.load(std::memory_order_acquire)) {
          break;  // empty and no producer left: empty forever
        } else {
          sched_yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[p].join();
  }
  done.store(true, std::memory_order_release);
  for (int c = 0; c < kConsumers; ++c) {
    threads[kProducers + c].join();
  }

  EXPECT_EQ(list.Size(), 0u);
  EXPECT_LE(list.peak(), DeferredFreeList::kCapacity);
  std::vector<void*> offered;
  for (const auto& chunk : accepted) {
    offered.insert(offered.end(), chunk.begin(), chunk.end());
  }
  std::vector<void*> drained;
  for (const auto& chunk : popped) {
    drained.insert(drained.end(), chunk.begin(), chunk.end());
  }
  std::sort(offered.begin(), offered.end());
  std::sort(drained.begin(), drained.end());
  EXPECT_EQ(drained, offered);
}

// End-to-end: a reader thread parked mid-operation pins a node through its tracked
// frame; the reclaimer cannot free it until the reader finishes.
TEST_F(FreeProcTest, LiveReaderBlocksReclamationEndToEnd) {
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(64);
  std::atomic<int> reader_state{0};  // 0: starting, 1: holding, 2: release requested

  std::thread reader([&] {
    runtime::ThreadScope scope;
    StContext& ctx = domain_.AcquireHandle();
    TrackedFrame<2> frame(ctx);
    frame.words[0] = reinterpret_cast<uintptr_t>(node);
    reader_state.store(1, std::memory_order_release);
    while (reader_state.load(std::memory_order_acquire) != 2) {
      sched_yield();
    }
    frame.words[0] = 0;
  });
  while (reader_state.load(std::memory_order_acquire) != 1) {
    sched_yield();
  }

  StContext& reclaimer = domain_.AcquireHandle();
  reclaimer.MutableFreeSet().push_back(node);
  ScanAndFree(reclaimer);
  EXPECT_TRUE(pool.OwnsLive(node)) << "freed while a reader still held a reference";

  reader_state.store(2, std::memory_order_release);
  reader.join();
  EXPECT_EQ(reclaimer.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(node));
}

}  // namespace
}  // namespace stacktrack::core
