// Unit tests for the type-stable pool allocator.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "runtime/pool_alloc.h"

namespace stacktrack::runtime {
namespace {

TEST(PoolTest, AllocFreeRoundTrip) {
  auto& pool = PoolAllocator::Instance();
  const auto before = pool.GetStats();
  void* p = pool.Alloc(40);
  EXPECT_GE(pool.UsableSize(p), 40u);
  EXPECT_TRUE(pool.OwnsLive(p));
  pool.Free(p);
  EXPECT_FALSE(pool.OwnsLive(p));
  const auto after = pool.GetStats();
  EXPECT_EQ(after.total_allocs, before.total_allocs + 1);
  EXPECT_EQ(after.total_frees, before.total_frees + 1);
}

TEST(PoolTest, SixteenByteAlignment) {
  auto& pool = PoolAllocator::Instance();
  std::vector<void*> blocks;
  for (std::size_t size : {1u, 17u, 100u, 1000u, 4000u}) {
    void* p = pool.Alloc(size);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u) << size;
    blocks.push_back(p);
  }
  for (void* p : blocks) {
    pool.Free(p);
  }
}

TEST(PoolTest, FreePoisonsUserData) {
  auto& pool = PoolAllocator::Instance();
  void* p = pool.Alloc(64);
  const std::size_t usable = pool.UsableSize(p);
  std::memset(p, 0x42, usable);
  pool.Free(p);
  // Type stability: the memory stays mapped, so inspecting it is safe; it must carry
  // the poison pattern everywhere.
  EXPECT_TRUE(PoolAllocator::IsPoisoned(p, usable));
}

TEST(PoolTest, PoisonPatternReadsAsMarkedPointerAndHugeKey) {
  // The lazy-validation STM's zombie-safety argument (htm/soft_backend.h) depends on
  // these two properties of the poison byte.
  uint64_t word = 0;
  std::memset(&word, kPoisonByte, sizeof(word));
  EXPECT_EQ(word & 1, 1u);                    // reads as a marked pointer
  EXPECT_GT(word, uint64_t{1} << 62);         // reads as a key beyond any benchmark key
}

TEST(PoolTest, FreedBlockIsRecycled) {
  auto& pool = PoolAllocator::Instance();
  void* first = pool.Alloc(48);
  pool.Free(first);
  void* second = pool.Alloc(48);
  EXPECT_EQ(first, second);  // LIFO free list of the same size class
  pool.Free(second);
}

TEST(PoolTest, DistinctClassesDoNotMix) {
  auto& pool = PoolAllocator::Instance();
  void* small = pool.Alloc(16);
  void* large = pool.Alloc(2000);
  EXPECT_NE(pool.UsableSize(small), pool.UsableSize(large));
  pool.Free(small);
  void* large2 = pool.Alloc(2000);
  EXPECT_NE(large2, small);
  pool.Free(large);
  pool.Free(large2);
}

TEST(PoolDeathTest, DoubleFreeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto& pool = PoolAllocator::Instance();
  void* p = pool.Alloc(32);
  pool.Free(p);
  EXPECT_DEATH(pool.Free(p), "double-freed");
}

TEST(PoolTest, ObjectsNeverSpanRegionBoundary) {
  auto& pool = PoolAllocator::Instance();
  std::vector<void*> blocks;
  for (int i = 0; i < 5000; ++i) {
    void* p = pool.Alloc(200);
    const uintptr_t base = reinterpret_cast<uintptr_t>(p);
    const uintptr_t end = base + pool.UsableSize(p) - 1;
    EXPECT_EQ(base >> 21, end >> 21) << "object spans a 2 MiB boundary";
    blocks.push_back(p);
  }
  for (void* p : blocks) {
    pool.Free(p);
  }
}

TEST(PoolTest, ConcurrentAllocFreeKeepsAccounting) {
  auto& pool = PoolAllocator::Instance();
  const auto before = pool.GetStats();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      std::vector<void*> mine;
      for (int i = 0; i < 2000; ++i) {
        mine.push_back(pool.Alloc(64));
        if (mine.size() > 16) {
          pool.Free(mine.back());
          mine.pop_back();
          pool.Free(mine.front());
          mine.erase(mine.begin());
        }
      }
      for (void* p : mine) {
        pool.Free(p);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto after = pool.GetStats();
  EXPECT_EQ(after.total_allocs - before.total_allocs, 8000u);
  EXPECT_EQ(after.total_frees - before.total_frees, 8000u);
  EXPECT_EQ(after.live_objects, before.live_objects);
}

// OwnsLive reads the block header's magic word, so it answers for block bases the
// pool handed out: true while the block is allocated, false once it is freed, in
// every size class.
TEST(PoolTest, OwnsLiveOnlyAtALiveBlockBase) {
  auto& pool = PoolAllocator::Instance();
  for (std::size_t size = 32; size <= 4096; size *= 2) {
    std::vector<void*> blocks;
    for (int i = 0; i < 3; ++i) {
      blocks.push_back(pool.Alloc(size));
    }
    for (void* p : blocks) {
      ASSERT_GE(pool.UsableSize(p), size);
      EXPECT_TRUE(pool.OwnsLive(p)) << "live, size " << size;
    }
    for (void* p : blocks) {
      pool.Free(p);
      EXPECT_FALSE(pool.OwnsLive(p)) << "freed, size " << size;
    }
  }
}

}  // namespace
}  // namespace stacktrack::runtime
