// Instantiates every data structure with every scheme and runs single-threaded
// sanity operations — the canary that keeps all template combinations compiling.
#include <gtest/gtest.h>

#include "ds/hashtable.h"
#include "ds/list.h"
#include "ds/queue.h"
#include "ds/skiplist.h"
#include "smr/registry.h"

namespace stacktrack {
namespace {

template <typename Smr>
class SmokeTest : public ::testing::Test {};

using AllSchemes = smr::RegisteredSchemes::Apply<::testing::Types>;
TYPED_TEST_SUITE(SmokeTest, AllSchemes);

TYPED_TEST(SmokeTest, ListBasicOps) {
  runtime::ThreadScope scope;
  typename TypeParam::Domain domain;
  auto& h = domain.AcquireHandle();
  ds::LockFreeList<TypeParam> list;
  EXPECT_FALSE(list.Contains(h, 7));
  EXPECT_TRUE(list.Insert(h, 7, 70));
  EXPECT_FALSE(list.Insert(h, 7, 71));
  EXPECT_TRUE(list.Contains(h, 7));
  EXPECT_TRUE(list.Insert(h, 3, 30));
  EXPECT_TRUE(list.Insert(h, 11, 110));
  EXPECT_EQ(list.SizeUnsafe(), 3u);
  EXPECT_TRUE(list.Remove(h, 7));
  EXPECT_FALSE(list.Remove(h, 7));
  EXPECT_FALSE(list.Contains(h, 7));
  EXPECT_EQ(list.SizeUnsafe(), 2u);
}

TYPED_TEST(SmokeTest, QueueBasicOps) {
  runtime::ThreadScope scope;
  typename TypeParam::Domain domain;
  auto& h = domain.AcquireHandle();
  ds::LockFreeQueue<TypeParam> queue;
  EXPECT_EQ(queue.Dequeue(h), std::nullopt);
  queue.Enqueue(h, 1);
  queue.Enqueue(h, 2);
  queue.Enqueue(h, 3);
  EXPECT_EQ(queue.Peek(h), std::optional<uint64_t>(1));
  EXPECT_EQ(queue.Dequeue(h), std::optional<uint64_t>(1));
  EXPECT_EQ(queue.Dequeue(h), std::optional<uint64_t>(2));
  EXPECT_EQ(queue.Dequeue(h), std::optional<uint64_t>(3));
  EXPECT_EQ(queue.Dequeue(h), std::nullopt);
}

TYPED_TEST(SmokeTest, SkipListBasicOps) {
  runtime::ThreadScope scope;
  typename TypeParam::Domain domain;
  auto& h = domain.AcquireHandle();
  ds::LockFreeSkipList<TypeParam> skiplist;
  EXPECT_FALSE(skiplist.Contains(h, 42));
  for (uint64_t key = 1; key <= 64; ++key) {
    EXPECT_TRUE(skiplist.Insert(h, key, key * 10));
  }
  EXPECT_FALSE(skiplist.Insert(h, 42, 0));
  EXPECT_TRUE(skiplist.Contains(h, 42));
  EXPECT_EQ(skiplist.SizeUnsafe(), 64u);
  for (uint64_t key = 1; key <= 64; key += 2) {
    EXPECT_TRUE(skiplist.Remove(h, key));
  }
  EXPECT_FALSE(skiplist.Remove(h, 41));
  EXPECT_FALSE(skiplist.Contains(h, 41));
  EXPECT_TRUE(skiplist.Contains(h, 42));
  EXPECT_EQ(skiplist.SizeUnsafe(), 32u);
}

TYPED_TEST(SmokeTest, HashTableBasicOps) {
  runtime::ThreadScope scope;
  typename TypeParam::Domain domain;
  auto& h = domain.AcquireHandle();
  ds::LockFreeHashTable<TypeParam> table(64);
  EXPECT_EQ(table.bucket_count(), 64u);
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_TRUE(table.Insert(h, key, key));
  }
  EXPECT_EQ(table.SizeUnsafe(), 200u);
  for (uint64_t key = 0; key < 200; key += 2) {
    EXPECT_TRUE(table.Remove(h, key));
  }
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(table.Contains(h, key), key % 2 == 1);
  }
}

}  // namespace
}  // namespace stacktrack
