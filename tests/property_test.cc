// Parameterized property sweeps (TEST_P): set semantics, ordering invariants, and
// reclamation accounting across workload shapes, structures, and schemes.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "ds/hashtable.h"
#include "ds/list.h"
#include "ds/queue.h"
#include "ds/skiplist.h"
#include "runtime/barrier.h"
#include "runtime/rand.h"
#include "smr/registry.h"

namespace stacktrack {
namespace {

// ---- Property 1: any interleaving of per-key operations matches a sequential map ---
// Single-threaded differential test against std::map across workload shapes: the
// structures must implement exact set semantics for every (mutation%, keyspace, ops).

struct MapShape {
  uint32_t mutation_percent;
  uint64_t key_space;
  uint32_t ops;
};

class MapDifferentialTest : public ::testing::TestWithParam<MapShape> {};

template <typename Smr, typename Map>
void RunDifferential(Map& map, const MapShape& shape, uint64_t seed) {
  runtime::ThreadScope scope;
  typename Smr::Domain domain;
  auto& h = domain.AcquireHandle();
  std::map<uint64_t, uint64_t> reference;
  runtime::Xorshift128 rng(seed);
  const uint32_t half = shape.mutation_percent / 2;
  for (uint32_t i = 0; i < shape.ops; ++i) {
    const uint64_t key = 1 + rng.NextBounded(shape.key_space);
    const uint64_t dice = rng.NextBounded(100);
    if (dice < half) {
      const bool inserted = map.Insert(h, key, key);
      EXPECT_EQ(inserted, reference.emplace(key, key).second) << "op " << i << " key " << key;
    } else if (dice < 2 * half) {
      const bool removed = map.Remove(h, key);
      EXPECT_EQ(removed, reference.erase(key) == 1) << "op " << i << " key " << key;
    } else {
      EXPECT_EQ(map.Contains(h, key), reference.count(key) == 1) << "op " << i << " key " << key;
    }
  }
  EXPECT_EQ(map.SizeUnsafe(), reference.size());
}

TEST_P(MapDifferentialTest, ListMatchesStdMap) {
  ds::LockFreeList<smr::StackTrackSmr> list;
  RunDifferential<smr::StackTrackSmr>(list, GetParam(), 0x11);
}

TEST_P(MapDifferentialTest, SkipListMatchesStdMap) {
  ds::LockFreeSkipList<smr::StackTrackSmr> skiplist;
  RunDifferential<smr::StackTrackSmr>(skiplist, GetParam(), 0x22);
}

TEST_P(MapDifferentialTest, HashTableMatchesStdMap) {
  ds::LockFreeHashTable<smr::StackTrackSmr> table(64);
  RunDifferential<smr::StackTrackSmr>(table, GetParam(), 0x33);
}

TEST_P(MapDifferentialTest, ListMatchesStdMapUnderHazards) {
  ds::LockFreeList<smr::HazardSmr> list;
  RunDifferential<smr::HazardSmr>(list, GetParam(), 0x44);
}

TEST_P(MapDifferentialTest, SkipListMatchesStdMapUnderEpoch) {
  ds::LockFreeSkipList<smr::EpochSmr> skiplist;
  RunDifferential<smr::EpochSmr>(skiplist, GetParam(), 0x55);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MapDifferentialTest,
    ::testing::Values(MapShape{100, 16, 4000},   // pure churn, tiny keyspace
                      MapShape{50, 64, 4000},    // heavy mutation
                      MapShape{20, 256, 4000},   // the paper's mix
                      MapShape{2, 64, 4000},     // read-mostly
                      MapShape{100, 1, 2000},    // single-key pathological
                      MapShape{40, 4096, 6000}), // sparse keyspace
    [](const auto& info) {
      return "mut" + std::to_string(info.param.mutation_percent) + "_keys" +
             std::to_string(info.param.key_space) + "_ops" + std::to_string(info.param.ops);
    });

// ---- Property 2: list/skip-list iteration order is strictly sorted after churn -----

class SortedOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(SortedOrderTest, ListStaysStrictlySorted) {
  runtime::ThreadScope scope;
  smr::StackTrackSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  ds::LockFreeList<smr::StackTrackSmr> list;
  runtime::Xorshift128 rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const uint64_t key = 1 + rng.NextBounded(128);
    if (rng.NextBool(0.5)) {
      list.Insert(h, key, key);
    } else {
      list.Remove(h, key);
    }
  }
  uint64_t previous = 0;
  const auto* node = list.head()->next.load(std::memory_order_acquire);
  while (node != nullptr) {
    const auto* clean = ds::detail::Unmarked(node);
    const uint64_t key = clean->key.load(std::memory_order_acquire);
    EXPECT_GT(key, previous) << "list order violated";
    previous = key;
    node = clean->next.load(std::memory_order_acquire);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortedOrderTest, ::testing::Range(1, 6));

// ---- Property 3: queue preserves per-producer FIFO order under concurrency ---------

class QueueFifoTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(QueueFifoTest, PerProducerOrderIsPreserved) {
  const uint32_t producers = GetParam();
  ds::LockFreeQueue<smr::StackTrackSmr> queue;
  smr::StackTrackSmr::Domain domain;
  constexpr uint32_t kPerProducer = 3000;

  runtime::SpinBarrier barrier(producers + 1);
  std::vector<std::thread> threads;
  for (uint32_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      runtime::ThreadScope scope;
      auto& h = domain.AcquireHandle();
      barrier.Wait();
      for (uint32_t i = 0; i < kPerProducer; ++i) {
        queue.Enqueue(h, (uint64_t{p} << 32) | i);
      }
    });
  }

  std::vector<uint64_t> last_seen(producers, 0);
  std::vector<bool> seen_any(producers, false);
  {
    runtime::ThreadScope scope;
    auto& h = domain.AcquireHandle();
    barrier.Wait();
    uint64_t drained = 0;
    while (drained < uint64_t{producers} * kPerProducer) {
      if (auto value = queue.Dequeue(h)) {
        const uint32_t producer = static_cast<uint32_t>(*value >> 32);
        const uint64_t sequence = *value & 0xffffffffu;
        if (seen_any[producer]) {
          EXPECT_GT(sequence, last_seen[producer]) << "FIFO violated for producer " << producer;
        }
        seen_any[producer] = true;
        last_seen[producer] = sequence;
        ++drained;
      }
    }
  }
  for (auto& thread : threads) {
    thread.join();
  }
}

INSTANTIATE_TEST_SUITE_P(Producers, QueueFifoTest, ::testing::Values(1u, 2u, 4u));

// ---- Property 4: reclamation accounting balances under churn -----------------------
// Pool allocs - frees must balance once the structure and its domain are torn down,
// i.e. no node is leaked by the fast path or parked for good by a scheme, and none is
// double-freed. StackTrack runs it for every max_free batching configuration; every
// other reclaiming scheme runs it with its defaults.

template <typename Smr, typename... DomainArgs>
void ExpectListChurnBalances(const DomainArgs&... domain_args) {
  auto& pool = runtime::PoolAllocator::Instance();
  const auto before = pool.GetStats();
  {
    typename Smr::Domain domain(domain_args...);
    ds::LockFreeList<Smr> list;
    constexpr uint32_t kThreads = 4;
    runtime::SpinBarrier barrier(kThreads);
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        runtime::ThreadScope scope;
        auto& h = domain.AcquireHandle();
        runtime::Xorshift128 rng(0x900d ^ t);
        barrier.Wait();
        for (int i = 0; i < 5000; ++i) {
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
    // Structure destruction frees the survivors; domain destruction flushes buffers.
  }
  const auto after = pool.GetStats();
  EXPECT_EQ(after.live_objects, before.live_objects)
      << "leaked " << after.live_objects - before.live_objects << " nodes";
}

class ReclamationBalanceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ReclamationBalanceTest, ListChurnBalancesAllocations) {
  core::StConfig config;
  config.max_free = GetParam();
  ExpectListChurnBalances<smr::StackTrackSmr>(config);
}

INSTANTIATE_TEST_SUITE_P(MaxFree, ReclamationBalanceTest, ::testing::Values(1u, 8u, 64u, 256u));

template <typename Smr>
class SchemeReclamationBalanceTest : public ::testing::Test {};

// Every registered scheme but LeakySmr, which leaks by design.
using ReclaimingSchemes = ::testing::Types<smr::EpochSmr, smr::HazardSmr, smr::DtaSmr,
                                           smr::StackTrackSmr, smr::HyalineSmr>;
TYPED_TEST_SUITE(SchemeReclamationBalanceTest, ReclaimingSchemes);

TYPED_TEST(SchemeReclamationBalanceTest, ListChurnBalancesAllocations) {
  ExpectListChurnBalances<TypeParam>();
}

}  // namespace
}  // namespace stacktrack
