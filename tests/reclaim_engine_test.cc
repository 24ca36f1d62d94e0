// Tests for the staged reclamation pipeline's hashed verdict source
// (core/reclaim_engine.h): the private root table a round collects under the shared
// inspection protocol. An incomplete table (retry cap via injected phantom splits
// bumps, odd-seq stalls, refset overflow) frees nothing; another thread's root
// blocks a free while the reclaimer's own roots do not; and an operation that
// completes mid-collection drops its roots from the table (the oper-counter
// shortcut).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "core/free_proc.h"
#include "core/reclaim_engine.h"
#include "runtime/fault.h"
#include "runtime/pool_alloc.h"
#include "runtime/thread_registry.h"

namespace stacktrack::core {
namespace {

using runtime::fault::Site;
namespace fault = runtime::fault;

class ReclaimEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DisarmAll(); }
  void TearDown() override {
    fault::DisarmAll();
    // Every scenario must end fully reclaimed: residue in the global deferred list
    // would bleed into later tests' pool accounting.
    EXPECT_EQ(DeferredFreeList::Instance().Size(), 0u);
  }

  runtime::ThreadScope scope_;
};

// Claims a registry slot (below the watermark, so collections visit it) for the
// lifetime of one synthetic context. Declared before the context it backs: the
// context is destroyed first, then the slot is released.
struct SlotClaim {
  SlotClaim() : tid(runtime::ThreadRegistry::Instance().RegisterCurrentThread()) {}
  ~SlotClaim() { runtime::ThreadRegistry::Instance().Deregister(tid); }
  const uint32_t tid;
};

// Phantom splits bumps (the kSplitsBump injection firing on every consistency check)
// exhaust the collection retry cap: the table is incomplete, and the round must free
// NOTHING — not even completely unreferenced candidates. (Tables are private to the
// round, so nothing is published either.)
TEST_F(ReclaimEngineTest, RetryCappedCollectionFreesNothingAndPublishesNothing) {
  StConfig config;
  config.inspect_retry_cap = 4;
  SlotClaim a_slot, victim_slot;
  StContext a(a_slot.tid, config);
  StContext victim(victim_slot.tid, config);
  auto& pool = runtime::PoolAllocator::Instance();
  void* dead = pool.Alloc(64);

  fault::ArmGate(Site::kSplitsBump);
  a.MutableFreeSet() = {dead};
  ScanAndFreeHashed(a);
  fault::Disarm(Site::kSplitsBump);

  EXPECT_TRUE(pool.OwnsLive(dead)) << "incomplete table cannot prove deadness";
  EXPECT_EQ(a.free_set_size(), 1u);
  EXPECT_GE(a.stats.snapshot_incomplete, 1u);
  EXPECT_GT(a.stats.scan_retry_capped, 0u);

  // Fault cleared: the very next round reclaims.
  EXPECT_EQ(a.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(dead));
}

// A thread parked with its splits counter odd (stalled mid-exposure) starves the
// collection through the odd-seq retry path, with the same frees-nothing outcome.
TEST_F(ReclaimEngineTest, OddSeqStallMakesRoundIncomplete) {
  StConfig config;
  config.inspect_retry_cap = 4;
  SlotClaim a_slot, victim_slot;
  StContext a(a_slot.tid, config);
  StContext victim(victim_slot.tid, config);
  auto& pool = runtime::PoolAllocator::Instance();
  void* dead = pool.Alloc(64);

  victim.splits_seq.store(1, std::memory_order_release);  // exposure "in flight"
  a.MutableFreeSet() = {dead};
  ScanAndFreeHashed(a);
  EXPECT_TRUE(pool.OwnsLive(dead));
  EXPECT_GE(a.stats.snapshot_incomplete, 1u);

  victim.splits_seq.store(2, std::memory_order_release);  // exposure finished
  EXPECT_EQ(a.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(dead));
}

// An overflowed reference set cannot be enumerated into a table; with refset
// scanning in force the round is incomplete and frees nothing.
TEST_F(ReclaimEngineTest, RefsetOverflowMakesRoundIncomplete) {
  StConfig config;
  config.scan_refsets_always = true;
  SlotClaim a_slot, victim_slot;
  StContext a(a_slot.tid, config);
  StContext victim(victim_slot.tid, config);
  auto& pool = runtime::PoolAllocator::Instance();
  void* dead = pool.Alloc(64);

  for (uint32_t i = 0; i <= RefSet::kSlots; ++i) {
    victim.ref_set.Add(0x1000);
  }
  ASSERT_TRUE(victim.ref_set.overflowed());

  a.MutableFreeSet() = {dead};
  ScanAndFreeHashed(a);
  EXPECT_TRUE(pool.OwnsLive(dead));
  EXPECT_GE(a.stats.snapshot_incomplete, 1u);

  victim.ref_set.Clear();
  EXPECT_EQ(a.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(dead));
}

// Roots still sitting in the reclaimer's own frames are dead by contract once its
// operation ended: the table skips the reclaimer, so they do not block its frees.
TEST_F(ReclaimEngineTest, ReclaimersOwnRootsDoNotBlockItsFrees) {
  SlotClaim a_slot;
  StContext a(a_slot.tid, StConfig{});
  TrackedFrame<2> frame(a);
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(64);
  frame.words[0] = reinterpret_cast<uintptr_t>(node);

  a.MutableFreeSet() = {node};
  ScanAndFreeHashed(a);
  EXPECT_FALSE(pool.OwnsLive(node))
      << "a reclaimer's own roots must not block its frees";
  frame.words[0] = 0;
}

// ...but the same root in ANOTHER thread's frame does block the free.
TEST_F(ReclaimEngineTest, OtherThreadsRootBlocksFree) {
  SlotClaim a_slot, b_slot;
  StContext a(a_slot.tid, StConfig{});
  StContext b(b_slot.tid, StConfig{});
  TrackedFrame<2> frame(a);
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(64);
  frame.words[0] = reinterpret_cast<uintptr_t>(node);

  b.MutableFreeSet() = {node};
  ScanAndFreeHashed(b);
  EXPECT_TRUE(pool.OwnsLive(node));

  frame.words[0] = 0;
  EXPECT_EQ(b.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(node));
}

// The oper-counter shortcut on the hashed path: a reclaimer parked mid-collection
// (kInspectStall gate, after reading the victim's counters) resumes to find that the
// victim's operation completed. Every candidate of the round was retired before the
// collection began, so that operation's roots are dead and must not enter the table:
// a node pinned only by the finished operation's frame is freed, not re-read and kept.
TEST_F(ReclaimEngineTest, CompletedOperationDropsItsRootsFromTheTable) {
  SlotClaim reclaimer_slot, victim_slot;
  StContext reclaimer(reclaimer_slot.tid, StConfig{});
  StContext victim(victim_slot.tid, StConfig{});
  TrackedFrame<2> frame(victim);
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(64);
  frame.words[0] = reinterpret_cast<uintptr_t>(node);
  reclaimer.MutableFreeSet() = {node};

  fault::ArmGate(Site::kInspectStall);
  std::thread round([&reclaimer] {
    runtime::ThreadScope scope;  // a registered tid, so the gate reports the park
    ScanAndFreeHashed(reclaimer);
  });
  bool parked = false;
  for (int spin = 0; spin < 200000 && !parked; ++spin) {
    parked = fault::StalledMask() != 0;
    std::this_thread::yield();
  }
  EXPECT_TRUE(parked) << "the hashed round never reached the inspection window";
  victim.oper_counter.fetch_add(1, std::memory_order_release);  // operation completes
  fault::ReleaseGate(Site::kInspectStall);
  round.join();

  EXPECT_FALSE(pool.OwnsLive(node))
      << "roots of a completed operation must not block a free";
  frame.words[0] = 0;
  EXPECT_EQ(reclaimer.FlushFrees(), 0u);
}

}  // namespace
}  // namespace stacktrack::core
