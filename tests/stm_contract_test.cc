// The StackTrack STM contract, asserted against the software engine through the
// htm.h surface: atomicity and read-own-writes, the capacity cliff at the
// MachineModel budget, QuarantineRange aborting in-flight readers, interop
// (SafeCas/SafeStore/SafeLoad) vs transactional stores, spurious- and fault-injected
// aborts, and abort causes surfacing through trace records. Everything here is what
// the SMR_* operation bracket (smr/smr.h) depends on — an engine that passes this
// suite can carry the whole scheme stack. The suite is instantiated once per software
// engine; the lazy engine is the only one, so `Engines` has one value. Engine
// internals (write buffering, the stripe clock) are pinned separately in
// softhtm_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "htm/htm.h"
#include "runtime/fault.h"
#include "runtime/machine_model.h"
#include "runtime/thread_registry.h"
#include "runtime/trace.h"

namespace stacktrack::htm {
namespace {

namespace trace = runtime::trace;

class StmContractTest : public ::testing::TestWithParam<StmEngine> {
 protected:
  void SetUp() override {
    ASSERT_EQ(GetParam(), ActiveStmEngine());
    runtime::MachineConfig config;
    config.base_capacity_lines = 1000;
    config.smt_capacity_lines = 1000;
    runtime::MachineModel::Instance().Configure(config);
  }
  void TearDown() override {
    runtime::fault::DisarmAll();
    runtime::MachineModel::Instance().Configure(runtime::MachineConfig{});
  }
  runtime::ThreadScope scope_;
};

TEST_P(StmContractTest, ReadOwnWritesAndCommitPublishes) {
  std::atomic<uint64_t> a{1};
  std::atomic<uint64_t> b{2};
  const int rc = ST_HTM_BEGIN_POINT();
  ASSERT_EQ(rc, kTxStarted);
  EXPECT_EQ(TxLoad(a), 1u);
  TxStore(a, uint64_t{10});
  EXPECT_EQ(TxLoad(a), 10u);  // read-own-writes from the write buffer
  TxStore(a, uint64_t{11});
  EXPECT_EQ(TxLoad(a), 11u);  // write-after-write
  TxStore(b, uint64_t{20});
  TxCommit();
  EXPECT_EQ(a.load(), 11u);
  EXPECT_EQ(b.load(), 20u);
}

TEST_P(StmContractTest, ExplicitAbortRollsBackStores) {
  std::atomic<uint64_t> word{5};
  volatile int aborts = 0;
  const int rc = ST_HTM_BEGIN_POINT();
  if (rc != kTxStarted) {
    aborts = aborts + 1;
    EXPECT_EQ(rc, static_cast<int>(AbortCause::kExplicit));
  } else {
    TxStore(word, uint64_t{99});
    EXPECT_EQ(TxLoad(word), 99u);
    TxAbort(AbortCause::kExplicit);
  }
  EXPECT_EQ(aborts, 1);
  // The store must not have survived: it is dropped from the write buffer.
  EXPECT_EQ(word.load(), 5u);
}

TEST_P(StmContractTest, CapacityCliffAtConfiguredBudget) {
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
  // Every access counts against the budget, so the cliff lands on the budget's read
  // with no dependence on line→stripe hashing.
  EXPECT_EQ(reads_done, 16);
}

TEST_P(StmContractTest, QuarantineAbortsInFlightReaders) {
  alignas(64) static std::atomic<uint64_t> node[8];
  node[0].store(7);
  volatile int aborts = 0;
  const int rc = ST_HTM_BEGIN_POINT();
  if (rc != kTxStarted) {
    aborts = aborts + 1;
    EXPECT_EQ(rc, static_cast<int>(AbortCause::kConflict))
        << "cause: " << AbortCauseName(static_cast<AbortCause>(rc));
  } else {
    EXPECT_EQ(TxLoad(node[0]), 7u);
    QuarantineRange(&node[0], sizeof(node));
    TxCommit();
    FAIL() << "commit survived quarantine of a read range";
  }
  EXPECT_EQ(aborts, 1);
}

// A fresh line read after the segment's first store takes the engine's
// after-write path (read-own-writes scan, then the logged read) rather than the
// inline fast path. That read must still enter the read set: quarantining its line
// aborts the commit.
TEST_P(StmContractTest, ReadAfterStoreEntersReadSet) {
  alignas(64) static std::atomic<uint64_t> lines[16];
  std::atomic<uint64_t>& a = lines[0];
  std::atomic<uint64_t>& b = lines[8];  // next cache line
  a.store(0);
  b.store(9);
  volatile int aborts = 0;
  const int rc = ST_HTM_BEGIN_POINT();
  if (rc != kTxStarted) {
    aborts = aborts + 1;
    EXPECT_EQ(rc, static_cast<int>(AbortCause::kConflict))
        << "cause: " << AbortCauseName(static_cast<AbortCause>(rc));
  } else {
    TxStore(a, uint64_t{1});
    EXPECT_EQ(TxLoad(b), 9u);
    QuarantineRange(&b, sizeof(b));
    TxCommit();
    FAIL() << "commit survived quarantine of a line read after a store";
  }
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(a.load(), 0u);  // the aborted store never published
}

TEST_P(StmContractTest, SpuriousAbortInjection) {
  // hardware_contexts() == 0 makes one registered thread oversubscribed, and with
  // probability 1.0 the very first transactional access must abort with kOther.
  runtime::MachineConfig config;
  config.physical_cores = 0;
  config.smt_ways = 0;
  config.base_capacity_lines = 1000;
  config.smt_capacity_lines = 1000;
  config.oversubscribed_abort_prob = 1.0;
  runtime::MachineModel::Instance().Configure(config);

  std::atomic<uint64_t> word{1};
  volatile int aborts = 0;
  const int rc = ST_HTM_BEGIN_POINT();
  if (rc != kTxStarted) {
    aborts = aborts + 1;
    EXPECT_EQ(rc, static_cast<int>(AbortCause::kOther));
  } else {
    TxLoad(word);
    TxCommit();
    FAIL() << "access survived a certain spurious abort";
  }
  EXPECT_EQ(aborts, 1);
}

TEST_P(StmContractTest, FaultInjectedAbortAtBeginPoint) {
  // The kSoftTxAbort site fires once on the first begin with an explicit payload
  // cause; the retry must then start cleanly. Exercises the fault plumbing (this
  // suite carries the `fault` label for the tsan-fault preset).
  runtime::fault::ArmNthVisit(runtime::fault::Site::kSoftTxAbort, 1, 0,
                              static_cast<uint32_t>(AbortCause::kExplicit));
  volatile int aborts = 0;
  volatile int commits = 0;
  while (true) {
    const int rc = ST_HTM_BEGIN_POINT();
    if (rc != kTxStarted) {
      aborts = aborts + 1;
      EXPECT_EQ(rc, static_cast<int>(AbortCause::kExplicit));
      continue;
    }
    TxCommit();
    commits = commits + 1;
    break;
  }
  runtime::fault::DisarmAll();
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(commits, 1);
}

// Interop CAS increments of +1 race transactional increments of +2; the final value
// must account for every success exactly once — no lost updates in either direction.
TEST_P(StmContractTest, SafeCasVsTransactionalStoreInterleavings) {
  alignas(64) static std::atomic<uint64_t> counter{0};
  counter.store(0);
  constexpr uint64_t kTxIncrements = 4000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> cas_successes{0};

  std::thread interop([&] {
    runtime::ThreadScope scope;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t seen = SafeLoad(counter);
      if (SafeCas(counter, seen, seen + 1)) {
        cas_successes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (uint64_t i = 0; i < kTxIncrements; ++i) {
    while (true) {
      const int rc = ST_HTM_BEGIN_POINT();
      if (rc != kTxStarted) {
        continue;  // retry on any abort
      }
      const uint64_t v = TxLoad(counter);
      TxStore(counter, v + 2);
      TxCommit();
      break;
    }
  }
  stop.store(true);
  interop.join();
  EXPECT_EQ(counter.load(), 2 * kTxIncrements + cas_successes.load());
}

// Cross-thread atomicity: a transaction moves "money" between two accounts; a
// concurrent interop reader must never observe a torn or half-committed total.
TEST_P(StmContractTest, TransfersAreAtomicToSafeReaders) {
  alignas(64) static std::atomic<uint64_t> account_a{1000};
  alignas(64) static std::atomic<uint64_t> account_b{1000};
  account_a.store(1000);
  account_b.store(1000);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  std::thread reader([&] {
    runtime::ThreadScope scope;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t a = SafeLoad(account_a);
      const uint64_t b = SafeLoad(account_b);
      if (a > 2000 || b > 2000) {  // a torn or mid-transaction word would blow range
        torn.fetch_add(1);
      }
    }
  });

  for (int i = 0; i < 8000; ++i) {
    while (true) {
      const int rc = ST_HTM_BEGIN_POINT();
      if (rc != kTxStarted) {
        continue;
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

#if defined(STACKTRACK_TRACE_ENABLED)
TEST_P(StmContractTest, AbortCauseSurfacesInTraceRecords) {
  alignas(64) static std::atomic<uint64_t> node[8];
  node[0].store(3);
  trace::ResetAll();
  trace::Arm(true);
  volatile int aborts = 0;
  const int rc = ST_HTM_BEGIN_POINT();
  if (rc == kTxStarted) {
    TxLoad(node[0]);
    QuarantineRange(&node[0], sizeof(node));
    TxCommit();
    trace::Arm(false);
    FAIL() << "commit survived quarantine";
  }
  aborts = aborts + 1;
  trace::Arm(false);
  bool found = false;
  for (const trace::MergedRecord& record : trace::CollectMerged()) {
    if (record.event == trace::Event::kSegmentAbort &&
        record.arg == static_cast<uint64_t>(AbortCause::kConflict)) {
      found = true;
    }
  }
  EXPECT_EQ(aborts, 1);
  EXPECT_TRUE(found) << "no conflict segment_abort record collected";
  trace::ResetAll();
}
#endif  // STACKTRACK_TRACE_ENABLED

INSTANTIATE_TEST_SUITE_P(Engines, StmContractTest, ::testing::Values(StmEngine::kLazy),
                         [](const ::testing::TestParamInfo<StmEngine>&) { return "lazy"; });

}  // namespace
}  // namespace stacktrack::htm
