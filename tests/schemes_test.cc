// Unit tests for the baseline reclamation schemes: epoch quiescence semantics, hazard
// pointer protect/scan behaviour, and drop-the-anchor's stamp/anchor reasoning.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/pool_alloc.h"
#include "runtime/trace.h"
#include "smr/registry.h"

namespace stacktrack::smr {
namespace {

TEST(EpochTest, RetireBatchFreesWhenAllThreadsQuiet) {
  runtime::ThreadScope scope;
  EpochSmr::Domain domain({.batch_size = 4});
  auto& h = domain.AcquireHandle();
  auto& pool = runtime::PoolAllocator::Instance();

  void* nodes[4];
  for (void*& node : nodes) {
    node = pool.Alloc(32);
  }
  h.OpBegin(0);
  for (int i = 0; i < 3; ++i) {
    h.Retire(nodes[i]);
  }
  h.OpEnd();
  EXPECT_EQ(domain.Snapshot().frees, 0u);  // below the batch threshold
  h.OpBegin(0);
  h.Retire(nodes[3]);  // hits the threshold -> quiescence wait -> batch freed
  h.OpEnd();
  EXPECT_EQ(domain.Snapshot().frees, 4u);
  for (void* node : nodes) {
    EXPECT_FALSE(pool.OwnsLive(node));
  }
}

TEST(EpochTest, ReclaimerWaitsForInFlightOperation) {
  runtime::ThreadScope scope;
  EpochSmr::Domain domain({.batch_size = 1});
  auto& pool = runtime::PoolAllocator::Instance();
  std::atomic<int> state{0};  // 0: starting, 1: mid-op, 2: finish requested

  std::thread blocker([&] {
    runtime::ThreadScope inner;
    auto& h = domain.AcquireHandle();
    h.OpBegin(0);  // announce and stall mid-operation
    state.store(1, std::memory_order_release);
    while (state.load(std::memory_order_acquire) != 2) {
      sched_yield();
    }
    h.OpEnd();
  });
  while (state.load(std::memory_order_acquire) != 1) {
    sched_yield();
  }

  std::atomic<bool> freed{false};
  std::thread reclaimer([&] {
    runtime::ThreadScope inner;
    auto& h = domain.AcquireHandle();
    void* node = pool.Alloc(32);
    h.OpBegin(0);
    h.Retire(node);
    h.OpEnd();  // batch_size 1: must wait for the blocker here (the blocking flaw)
    freed.store(true, std::memory_order_release);
  });

  // Give the reclaimer ample time: it must be parked behind the stalled operation.
  for (int i = 0; i < 50 && !freed.load(std::memory_order_acquire); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(freed.load(std::memory_order_acquire))
      << "epoch reclaimed memory while a pre-existing operation was still running";
  state.store(2, std::memory_order_release);  // unblock -> quiescence -> free
  reclaimer.join();
  blocker.join();
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(domain.Snapshot().frees, 1u);
}

TEST(HazardTest, ProtectValidatesAgainstConcurrentChange) {
  runtime::ThreadScope scope;
  HazardSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  std::atomic<uint64_t> field{123};
  EXPECT_EQ(h.Protect(field, 0), 123u);
  // The protect loop re-reads until src is stable; a stable field returns instantly
  // and publishes the hazard.
  field.store(456);
  EXPECT_EQ(h.Protect(field, 0), 456u);
}

TEST(HazardTest, PublishedHazardBlocksFree) {
  runtime::ThreadScope scope;
  HazardSmr::Domain domain({.scan_threshold = 1});
  auto& h = domain.AcquireHandle();
  auto& pool = runtime::PoolAllocator::Instance();

  void* node = pool.Alloc(32);
  std::atomic<uint64_t> field{reinterpret_cast<uint64_t>(node)};
  h.Protect(field, 2);  // publish a hazard for the node
  h.Retire(node);       // threshold 1 -> immediate scan
  EXPECT_TRUE(pool.OwnsLive(node)) << "scan freed a hazard-protected node";

  h.OpEnd();       // clears the hazard row
  void* other = pool.Alloc(32);
  h.Retire(other);  // second scan reclaims both
  EXPECT_FALSE(pool.OwnsLive(node));
  EXPECT_FALSE(pool.OwnsLive(other));
  EXPECT_EQ(domain.Snapshot().frees, 2u);
}

TEST(HazardTest, TaggedHazardStillProtects) {
  runtime::ThreadScope scope;
  HazardSmr::Domain domain({.scan_threshold = 1});
  auto& h = domain.AcquireHandle();
  auto& pool = runtime::PoolAllocator::Instance();

  void* node = pool.Alloc(32);
  // A hazard holding a mark-tagged pointer (base | 1) must pin the node: scanning is
  // range containment, not equality.
  h.ProtectRaw(0, reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(node) | 1));
  h.Retire(node);
  EXPECT_TRUE(pool.OwnsLive(node));
  h.OpEnd();
  void* other = pool.Alloc(32);
  h.Retire(other);  // re-scan with the hazard row cleared frees both
  EXPECT_FALSE(pool.OwnsLive(node));
  EXPECT_FALSE(pool.OwnsLive(other));
}

TEST(HazardTest, CrossThreadHazardIsVisibleToScans) {
  HazardSmr::Domain domain({.scan_threshold = 1});
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(32);
  std::atomic<int> state{0};

  std::thread holder([&] {
    runtime::ThreadScope scope;
    auto& h = domain.AcquireHandle();
    std::atomic<uint64_t> field{reinterpret_cast<uint64_t>(node)};
    h.Protect(field, 0);
    state.store(1, std::memory_order_release);
    while (state.load(std::memory_order_acquire) != 2) {
      sched_yield();
    }
    h.OpEnd();
    state.store(3, std::memory_order_release);
  });
  while (state.load(std::memory_order_acquire) != 1) {
    sched_yield();
  }

  {
    runtime::ThreadScope scope;
    auto& h = domain.AcquireHandle();
    h.Retire(node);
    EXPECT_TRUE(pool.OwnsLive(node));  // pinned by the other thread's hazard
    state.store(2, std::memory_order_release);
    while (state.load(std::memory_order_acquire) != 3) {
      sched_yield();
    }
    void* other = pool.Alloc(32);
    h.Retire(other);  // re-scan after the hazard cleared
    EXPECT_FALSE(pool.OwnsLive(node));
    EXPECT_FALSE(pool.OwnsLive(other));
  }
  holder.join();
}

#ifdef NDEBUG
// Release builds must survive a slot-budget break loudly: the index clamps to slot
// 0 (never past the row, and still a published hazard) and the sticky counter
// records it. Debug builds assert instead, so the case is release-only.
TEST(HazardTest, SlotOverflowFailsLoudly) {
  runtime::ThreadScope scope;
  HazardSmr::Domain domain({.scan_threshold = 1});
  auto& h = domain.AcquireHandle();
  auto& pool = runtime::PoolAllocator::Instance();

  void* node = pool.Alloc(32);
  std::atomic<void*> link{node};
  h.OpBegin(0);
  (void)h.Protect(link, HazardSmr::kSlotsPerThread + 3);  // out of budget
  h.Retire(node);
  EXPECT_TRUE(pool.OwnsLive(node)) << "the clamped hazard no longer pins the node";
  h.OpEnd();
  EXPECT_GE(domain.Snapshot().guard_slot_overflows, 1u);

  void* other = pool.Alloc(32);
  h.Retire(other);  // re-scan with the hazard row cleared frees both
  EXPECT_FALSE(pool.OwnsLive(node));
}
#endif  // NDEBUG

TEST(DtaTest, NodesRetiredBeforeOpStartAreFreed) {
  runtime::ThreadScope scope;
  DtaSmr::Domain domain({.anchor_interval = 4, .batch_size = 1});
  auto& h = domain.AcquireHandle();
  auto& pool = runtime::PoolAllocator::Instance();

  h.OpBegin(0);
  h.OpEnd();  // idle thread
  void* node = pool.Alloc(32);
  h.Retire(node, /*key=*/10);  // batch 1 -> scan now; everyone idle -> freed
  EXPECT_FALSE(pool.OwnsLive(node));
  EXPECT_EQ(domain.Snapshot().frees, 1u);
}

TEST(DtaTest, ConcurrentOpPinsUntilAnchorPasses) {
  DtaSmr::Domain domain({.anchor_interval = 2, .batch_size = 1});
  auto& pool = runtime::PoolAllocator::Instance();
  std::atomic<int> state{0};

  std::thread traverser([&] {
    runtime::ThreadScope scope;
    auto& h = domain.AcquireHandle();
    h.OpBegin(0);  // op starts before the retire below -> may hold the node
    state.store(1, std::memory_order_release);
    while (state.load(std::memory_order_acquire) != 2) {
      sched_yield();
    }
    // Anchor past key 50 (two hops at interval 2 publish the anchor).
    h.AnchorHop(40);
    h.AnchorHop(50);
    state.store(3, std::memory_order_release);
    while (state.load(std::memory_order_acquire) != 4) {
      sched_yield();
    }
    h.OpEnd();
  });
  while (state.load(std::memory_order_acquire) != 1) {
    sched_yield();
  }

  {
    runtime::ThreadScope scope;
    auto& h = domain.AcquireHandle();
    void* node = pool.Alloc(32);
    h.Retire(node, /*key=*/20);
    EXPECT_TRUE(pool.OwnsLive(node)) << "freed a node a same-era operation may hold";

    state.store(2, std::memory_order_release);
    while (state.load(std::memory_order_acquire) != 3) {
      sched_yield();
    }
    // The traverser anchored at key 50 > 20: it provably dropped everything below.
    void* trigger = pool.Alloc(32);
    h.Retire(trigger, /*key=*/20);
    EXPECT_FALSE(pool.OwnsLive(node));
    state.store(4, std::memory_order_release);
  }
  traverser.join();
}

TEST(DtaTest, StalledOperationQuarantinesInsteadOfBlocking) {
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(32);
  {
    DtaSmr::Domain domain({.batch_size = 1, .stall_deadline_ns = 1'000'000});
    std::atomic<int> state{0};

    std::thread stalled([&] {
      runtime::ThreadScope scope;
      auto& h = domain.AcquireHandle();
      h.OpBegin(0);  // never anchors, never finishes (a "crashed" reader)
      state.store(1, std::memory_order_release);
      while (state.load(std::memory_order_acquire) != 2) {
        sched_yield();
      }
      h.OpEnd();
    });
    while (state.load(std::memory_order_acquire) != 1) {
      sched_yield();
    }

    {
      runtime::ThreadScope scope;
      auto& h = domain.AcquireHandle();
      h.Retire(node, /*key=*/7);  // the scan finds it pinned and stamps it
      EXPECT_TRUE(pool.OwnsLive(node));
      EXPECT_EQ(domain.Snapshot().stale_free_drops, 0u);
      // Past the deadline the next scan moves the pinned node to the quarantine, so
      // reclamation stays non-blocking (the freezing substitute).
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      h.Retire(pool.Alloc(32), /*key=*/1000);
      EXPECT_TRUE(pool.OwnsLive(node));
      EXPECT_EQ(domain.Snapshot().stale_free_drops, 1u);
      state.store(2, std::memory_order_release);
    }
    stalled.join();
  }
  EXPECT_FALSE(pool.OwnsLive(node)) << "domain teardown left the quarantine unfreed";
}

// Every scheme instantiates the same Domain surface — AcquireHandle / Snapshot — and
// the same operation bracket, the SMR_* macros. The test is deliberately
// scheme-agnostic: it compiles once per scheme, which is the contract.
template <typename Scheme>
class UnifiedSurfaceTest : public ::testing::Test {};

using AllSchemes = RegisteredSchemes::Apply<::testing::Types>;
TYPED_TEST_SUITE(UnifiedSurfaceTest, AllSchemes);

TYPED_TEST(UnifiedSurfaceTest, DomainSurfaceAndBracket) {
  runtime::ThreadScope scope;
  auto& pool = runtime::PoolAllocator::Instance();
  std::vector<void*> nodes;
  {
    typename TypeParam::Domain domain;
    auto& h = domain.AcquireHandle();

    const core::Stats before = domain.Snapshot();
    for (int i = 0; i < 16; ++i) {
      void* node = pool.Alloc(32);
      nodes.push_back(node);
      SMR_OP_BEGIN(h, /*op_id=*/1);
      SMR_CHECKPOINT(h);
      h.Retire(node, /*key=*/static_cast<uint64_t>(i));
      SMR_CHECKPOINT(h);
      SMR_OP_END(h);
    }
    const core::Stats after = domain.Snapshot();

    // Snapshot views are cumulative and never report more frees than retires.
    EXPECT_LE(after.frees, after.retires);
    EXPECT_GE(after.retires, before.retires);
    // Leaky never counts retires (nothing to reclaim); every other scheme must have
    // recorded the 16 issued in this block.
    if (!std::is_same_v<TypeParam, LeakySmr>) {
      EXPECT_GE(after.retires - before.retires, 16u);
    }
    // The merged trace is well-formed for every scheme (empty unless armed).
    for (const auto& record : runtime::trace::CollectMerged()) {
      EXPECT_LT(static_cast<uint16_t>(record.event),
                static_cast<uint16_t>(runtime::trace::Event::kCount));
    }
  }  // domain destruction releases whatever the scheme still buffered

  for (void* node : nodes) {
    if (pool.OwnsLive(node)) {
      pool.Free(node);  // leaky (by design) or still in flight at destruction
    }
  }
}

TEST(LeakyTest, RetireLeaksByDesign) {
  runtime::ThreadScope scope;
  LeakySmr::Domain domain;
  auto& h = domain.AcquireHandle();
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(32);
  h.Retire(node);
  EXPECT_TRUE(pool.OwnsLive(node));  // never freed by the scheme
  pool.Free(node);                   // test cleanup
}

}  // namespace
}  // namespace stacktrack::smr
