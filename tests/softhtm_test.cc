// Unit tests for the software best-effort HTM backend: atomicity, conflict and
// capacity aborts, interop operations, and the quarantine protocol the reclaimer
// depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "htm/htm.h"
#include "runtime/machine_model.h"
#include "runtime/thread_registry.h"

namespace stacktrack::htm {
namespace {

class SoftHtmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // This suite asserts the engine's own semantics (write buffering, commit-time
    // validation, the stripe clock); the contract the split engine relies on lives
    // in stm_contract_test.cc. Generous budget so tests control capacity explicitly.
    runtime::MachineConfig config;
    config.base_capacity_lines = 1000;
    config.smt_capacity_lines = 1000;
    runtime::MachineModel::Instance().Configure(config);
  }
  void TearDown() override {
    runtime::MachineModel::Instance().Configure(runtime::MachineConfig{});
  }
  runtime::ThreadScope scope_;
};

TEST_F(SoftHtmTest, CommitPublishesBufferedWrites) {
  std::atomic<uint64_t> a{1};
  std::atomic<uint64_t> b{2};
  const int rc = ST_HTM_BEGIN_POINT();
  ASSERT_EQ(rc, kTxStarted);
  TxStore(a, uint64_t{10});
  TxStore(b, uint64_t{20});
  // Lazy write buffering: nothing visible before commit.
  EXPECT_EQ(a.load(), 1u);
  EXPECT_EQ(b.load(), 2u);
  TxCommit();
  EXPECT_EQ(a.load(), 10u);
  EXPECT_EQ(b.load(), 20u);
}

TEST_F(SoftHtmTest, ReadOwnWrites) {
  std::atomic<uint64_t> a{5};
  const int rc = ST_HTM_BEGIN_POINT();
  ASSERT_EQ(rc, kTxStarted);
  EXPECT_EQ(TxLoad(a), 5u);
  TxStore(a, uint64_t{6});
  EXPECT_EQ(TxLoad(a), 6u);  // sees the buffered value
  TxStore(a, uint64_t{7});
  EXPECT_EQ(TxLoad(a), 7u);  // write-after-write updates in place
  TxCommit();
  EXPECT_EQ(a.load(), 7u);
}

TEST_F(SoftHtmTest, ConflictingNonTxStoreAbortsAtCommit) {
  std::atomic<uint64_t> word{1};
  volatile int aborts = 0;
  const int rc = ST_HTM_BEGIN_POINT();
  if (rc != kTxStarted) {
    aborts = aborts + 1;
    EXPECT_EQ(rc, static_cast<int>(AbortCause::kConflict));
  } else {
    const uint64_t seen = TxLoad(word);
    SafeStore(word, seen + 100);  // stripe version bump -> our read log is stale
    TxCommit();                   // must abort (longjmp back to the begin point)
    FAIL() << "commit survived a conflicting store";
  }
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(word.load(), 101u);  // only the interop store landed
}

TEST_F(SoftHtmTest, QuarantineAbortsReaders) {
  // Simulates the reclaimer freeing a node a transaction has read.
  alignas(64) static std::atomic<uint64_t> node[8];
  node[0].store(7);
  volatile int aborts = 0;
  const int rc = ST_HTM_BEGIN_POINT();
  if (rc != kTxStarted) {
    aborts = aborts + 1;
    EXPECT_EQ(rc, static_cast<int>(AbortCause::kConflict));
  } else {
    EXPECT_EQ(TxLoad(node[0]), 7u);
    QuarantineRange(&node[0], sizeof(node));
    TxCommit();
    FAIL() << "commit survived quarantine of a read range";
  }
  EXPECT_EQ(aborts, 1);
}

TEST_F(SoftHtmTest, CapacityAbortAtConfiguredBudget) {
  runtime::MachineConfig config;
  config.base_capacity_lines = 16;
  config.smt_capacity_lines = 16;
  runtime::MachineModel::Instance().Configure(config);

  alignas(64) static std::atomic<uint64_t> words[64 * 8];
  volatile int aborts = 0;
  volatile int reads_done = 0;
  const int rc = ST_HTM_BEGIN_POINT();
  if (rc != kTxStarted) {
    aborts = aborts + 1;
    EXPECT_EQ(rc, static_cast<int>(AbortCause::kCapacity));
  } else {
    for (int i = 0; i < 64; ++i) {
      TxLoad(words[i * 8]);  // distinct cache lines
      reads_done = reads_done + 1;
    }
    TxCommit();
    FAIL() << "transaction exceeded the capacity budget without aborting";
  }
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(reads_done, 16);  // aborted exactly at the budget
}

TEST_F(SoftHtmTest, ExplicitAbort) {
  volatile int aborts = 0;
  const int rc = ST_HTM_BEGIN_POINT();
  if (rc != kTxStarted) {
    aborts = aborts + 1;
    EXPECT_EQ(rc, static_cast<int>(AbortCause::kExplicit));
  } else {
    TxAbort(AbortCause::kExplicit);
  }
  EXPECT_EQ(aborts, 1);
}

TEST_F(SoftHtmTest, ReadOnlyTransactionsValidate) {
  std::atomic<uint64_t> word{1};
  volatile int aborts = 0;
  const int rc = ST_HTM_BEGIN_POINT();
  if (rc != kTxStarted) {
    aborts = aborts + 1;
  } else {
    TxLoad(word);
    SafeStore(word, uint64_t{2});
    TxCommit();  // read-only commits still validate with lazy validation
    FAIL() << "read-only commit survived a conflicting store";
  }
  EXPECT_EQ(aborts, 1);
}

TEST_F(SoftHtmTest, SafeCasSemantics) {
  std::atomic<uint64_t> word{10};
  EXPECT_FALSE(SafeCas(word, uint64_t{9}, uint64_t{99}));
  EXPECT_EQ(word.load(), 10u);
  EXPECT_TRUE(SafeCas(word, uint64_t{10}, uint64_t{99}));
  EXPECT_EQ(word.load(), 99u);
}

TEST_F(SoftHtmTest, ClockAdvancesOnWritesOnly) {
  std::atomic<uint64_t> word{0};
  const uint64_t clock_before = soft::ClockValue();
  SafeLoad(word);
  EXPECT_EQ(soft::ClockValue(), clock_before);  // loads do not tick the clock
  SafeStore(word, uint64_t{1});
  EXPECT_GT(soft::ClockValue(), clock_before);
}

// Cross-thread atomicity: a transaction moves "money" between two accounts; a
// concurrent interop reader must never observe a torn total.
TEST_F(SoftHtmTest, TransfersAreAtomicToSafeReaders) {
  alignas(64) static std::atomic<uint64_t> account_a{1000};
  alignas(64) static std::atomic<uint64_t> account_b{1000};
  account_a.store(1000);
  account_b.store(1000);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  std::thread reader([&] {
    runtime::ThreadScope scope;
    while (!stop.load(std::memory_order_relaxed)) {
      // Interop loads are individually stripe-consistent; the invariant check below
      // tolerates reading across a commit boundary only if each value is untorn and
      // the sum stays plausible for a +-N transfer stream with total 2000.
      const uint64_t a = SafeLoad(account_a);
      const uint64_t b = SafeLoad(account_b);
      if (a > 2000 || b > 2000) {  // a torn word would be wildly out of range
        torn.fetch_add(1);
      }
    }
  });

  for (int i = 0; i < 20000; ++i) {
    while (true) {
      const int rc = ST_HTM_BEGIN_POINT();
      if (rc != kTxStarted) {
        continue;  // retry on conflict
      }
      const uint64_t a = TxLoad(account_a);
      const uint64_t b = TxLoad(account_b);
      if (a > 0) {
        TxStore(account_a, a - 1);
        TxStore(account_b, b + 1);
      } else {
        TxStore(account_a, a + 1);
        TxStore(account_b, b - 1);
      }
      TxCommit();
      break;
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(account_a.load() + account_b.load(), 2000u);
}

}  // namespace
}  // namespace stacktrack::htm
