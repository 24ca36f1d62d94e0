// Tests for the observability layer: ring semantics (wraparound, drop counting),
// the armed/disarmed contract, exporter round trips, and multi-thread trace merging.
// Ring-level tests compile only when tracing is compiled in (STACKTRACK_TRACE=ON, the
// default); the exporter tests run either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/stats_export.h"
#include "runtime/pool_alloc.h"
#include "runtime/thread_registry.h"
#include "runtime/trace.h"
#include "smr/hazard.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack {
namespace {

namespace trace = runtime::trace;

#if defined(STACKTRACK_TRACE_ENABLED)

// Arms tracing for one test body and guarantees a clean, disarmed state around it.
class ArmedScope {
 public:
  ArmedScope() {
    trace::ResetAll();
    trace::Arm(true);
  }
  ~ArmedScope() {
    trace::Arm(false);
    trace::ResetAll();
  }
};

TEST(TraceRingTest, WraparoundOverwritesOldestAndCountsDrops) {
  runtime::ThreadScope scope;
  ArmedScope armed;
  constexpr uint64_t kOverflow = 100;
  const uint64_t total = trace::Ring::kCapacity + kOverflow;
  for (uint64_t i = 0; i < total; ++i) {
    trace::Emit(trace::Event::kRetire, /*arg=*/i);
  }
  trace::Arm(false);

  trace::Ring& ring = trace::internal::RingForThread(runtime::CurrentThreadId());
  EXPECT_EQ(ring.head(), total);
  EXPECT_EQ(ring.dropped(), kOverflow);
  EXPECT_EQ(trace::TotalDropped(), kOverflow);

  // The live window is exactly the newest kCapacity records: args
  // [kOverflow, total) in emission order.
  const auto merged = trace::CollectMerged();
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(trace::Ring::kCapacity));
  std::vector<uint64_t> args;
  args.reserve(merged.size());
  for (const auto& record : merged) {
    EXPECT_EQ(record.event, trace::Event::kRetire);
    args.push_back(record.arg);
  }
  std::sort(args.begin(), args.end());
  EXPECT_EQ(args.front(), kOverflow);
  EXPECT_EQ(args.back(), total - 1);
}

TEST(TraceRingTest, DisarmedSitesEmitNothing) {
  runtime::ThreadScope scope;
  trace::ResetAll();
  ASSERT_FALSE(trace::Armed());
  for (int i = 0; i < 1000; ++i) {
    trace::Emit(trace::Event::kSegmentBegin, 7);
    trace::Emit(trace::Event::kFree, 3);
  }
  EXPECT_TRUE(trace::CollectMerged().empty());
  EXPECT_EQ(trace::TotalDropped(), 0u);
}

TEST(TraceRingTest, UnregisteredThreadEmitsAreCountedAsDrops) {
  ArmedScope armed;
  std::thread outsider([] {
    // No ThreadScope: there is no ring to attribute to.
    trace::Emit(trace::Event::kRetire, 1);
    trace::Emit(trace::Event::kRetire, 1);
  });
  outsider.join();
  EXPECT_TRUE(trace::CollectMerged().empty());
  EXPECT_EQ(trace::TotalDropped(), 2u);
}

TEST(TraceMergeTest, MultiThreadCollectIsTimeOrderedAndComplete) {
  ArmedScope armed;
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kPerThread = 500;  // well below capacity: nothing may drop
  std::atomic<uint32_t> registered{0};  // all threads register before any emits:
  std::vector<std::thread> threads;     // registry slots (= rings) stay distinct
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &registered] {
      runtime::ThreadScope scope;
      registered.fetch_add(1, std::memory_order_acq_rel);
      while (registered.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
      for (uint64_t i = 0; i < kPerThread; ++i) {
        trace::Emit(trace::Event::kSegmentCommit, (uint64_t{t} << 32) | i);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  trace::Arm(false);

  const auto merged = trace::CollectMerged();
  EXPECT_EQ(trace::TotalDropped(), 0u);
  ASSERT_EQ(merged.size(), kThreads * kPerThread);
  std::set<uint32_t> tids;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    tids.insert(merged[i].tid);
    if (i > 0) {
      EXPECT_GE(merged[i].ns, merged[i - 1].ns) << "merge is not time-ordered at " << i;
    }
  }
  EXPECT_EQ(tids.size(), kThreads);
}

// The batch-event identity on a real workload: with no drops, the sum of kRetire /
// kFree args equals the scheme's counter deltas. Hazard pointers single-threaded is
// fully deterministic, so the identity is exact.
TEST(TraceWorkloadTest, BatchEventArgsSumToCounterDeltas) {
  runtime::ThreadScope scope;
  ArmedScope armed;
  auto& pool = runtime::PoolAllocator::Instance();
  smr::HazardSmr::Domain domain({.scan_threshold = 8});
  auto& h = domain.AcquireHandle();
  for (int i = 0; i < 64; ++i) {
    h.OpBegin(0);
    h.Retire(pool.Alloc(32));
    h.OpEnd();
  }
  trace::Arm(false);
  ASSERT_EQ(trace::TotalDropped(), 0u);

  const core::Stats snap = domain.Snapshot();
  uint64_t retired = 0;
  uint64_t freed = 0;
  for (const auto& record : trace::CollectMerged()) {
    if (record.event == trace::Event::kRetire) {
      retired += record.arg;
    } else if (record.event == trace::Event::kFree) {
      freed += record.arg;
    }
  }
  EXPECT_EQ(retired, snap.retires);
  EXPECT_EQ(freed, snap.frees);
  EXPECT_LE(snap.frees, snap.retires);
}

// Emit-site placement contract: when armed, no emit may run between the transaction
// begin point and its commit — EmitSlow's clock_gettime is a guaranteed RTM abort.
// The HTM layer registers an in-transaction probe with the trace layer, and EmitSlow
// aborts the process if an armed emit fires inside a transaction; the soft backend
// tracks its transaction state, so driving the real fast path here enforces the
// contract portably (a misplaced site kills this test even without TSX hardware).
TEST(TraceWorkloadTest, ArmedFastPathEmitsOutsideTransactions) {
  runtime::ThreadScope scope;
  ArmedScope armed;
  core::StConfig config;
  config.initial_split_limit = 4;
  smr::StackTrackSmr::Domain domain(config);
  core::StContext& ctx = domain.AcquireHandle();

  const uint64_t committed_before = ctx.stats.segments_committed;
  const uint64_t slow_before = ctx.stats.segments_slow;
  constexpr int kOps = 8;
  for (int op = 0; op < kOps; ++op) {
    SMR_OP_BEGIN(ctx, 0);
    for (int bb = 0; bb < 12; ++bb) {
      SMR_CHECKPOINT(ctx);  // limit 4: several mid-op commits and re-arms per op
    }
    SMR_OP_END(ctx);
  }
  trace::Arm(false);

  // The ops ran transactionally — tracing must not have pushed them onto the slow
  // path (on RTM an in-transaction emit site does exactly that, silently).
  EXPECT_GT(ctx.stats.segments_committed - committed_before, 0u);
  EXPECT_EQ(ctx.stats.segments_slow - slow_before, 0u);
  // Every arm attempt logged its begin record, outside the transaction.
  uint64_t begins = 0;
  for (const auto& record : trace::CollectMerged()) {
    if (record.event == trace::Event::kSegmentBegin) {
      ++begins;
    }
  }
  EXPECT_GE(begins, static_cast<uint64_t>(kOps));
}

TEST(TraceExportTest, TraceJsonRoundTripsThroughMinijson) {
  runtime::ThreadScope scope;
  ArmedScope armed;
  trace::Emit(trace::Event::kScanBegin, 5);
  trace::Emit(trace::Event::kFree, 5);
  trace::Emit(trace::Event::kScanEnd, 5);
  trace::Arm(false);

  const auto merged = trace::CollectMerged();
  ASSERT_EQ(merged.size(), 3u);
  const std::string json = core::TraceToJson(merged, trace::TotalDropped());

  core::minijson::Value root;
  ASSERT_TRUE(core::minijson::Parse(json, &root));
  const auto* dropped = root.Find("dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->AsU64(), 0u);
  const auto* records = root.Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->array.size(), 3u);
  EXPECT_EQ(records->array[0].Find("event")->string, "scan_begin");
  EXPECT_EQ(records->array[1].Find("event")->string, "free");
  EXPECT_EQ(records->array[2].Find("event")->string, "scan_end");
  for (const auto& record : records->array) {
    EXPECT_EQ(record.Find("arg")->AsU64(), 5u);
  }
}

#endif  // STACKTRACK_TRACE_ENABLED

TEST(StatsExportTest, JsonRoundTripPreservesEveryCounter) {
  std::size_t count = 0;
  const core::StatsField* fields = core::StatsFields(&count);
  ASSERT_GT(count, 0u);

  // Distinct, large values per field — anything that survives must have round-tripped
  // exactly, not through a double.
  core::Stats original{};
  for (std::size_t i = 0; i < count; ++i) {
    original.*(fields[i].member) = (uint64_t{1} << 53) + 1 + i;  // not double-exact
  }
  const std::string json = core::StatsToJson(original);
  core::Stats decoded{};
  ASSERT_TRUE(core::StatsFromJson(json, &decoded));
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(decoded.*(fields[i].member), original.*(fields[i].member))
        << "field " << fields[i].name << " did not round trip";
  }
}

TEST(StatsExportTest, TimelineReportsRelativeTimeAndLag) {
  std::vector<core::StatsSnapshot> samples(2);
  samples[0].ns = 1000;
  samples[0].totals.retires = 10;
  samples[0].totals.frees = 4;
  samples[1].ns = 3500;
  samples[1].totals.retires = 30;
  samples[1].totals.frees = 29;

  core::minijson::Value root;
  ASSERT_TRUE(core::minijson::Parse(core::TimelineToJson(samples), &root));
  const auto* list = root.Find("samples");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), 2u);
  EXPECT_EQ(list->array[0].Find("ns")->AsU64(), 0u);     // relative to first sample
  EXPECT_EQ(list->array[1].Find("ns")->AsU64(), 2500u);
  EXPECT_EQ(list->array[0].Find("lag")->AsU64(), 6u);
  EXPECT_EQ(list->array[1].Find("lag")->AsU64(), 1u);
}

TEST(StatsExportTest, ReclamationLagIdentity) {
  core::StatsSnapshot sample;
  sample.totals.retires = 100;
  sample.totals.frees = 58;
  EXPECT_EQ(core::ReclamationLag(sample), 42u);
}

// A racy mid-run Sum() can observe a free (adopted cross-thread) before its retire;
// the lag series must saturate at 0 instead of underflowing to ~1.8e19.
TEST(StatsExportTest, ReclamationLagSaturatesOnRacySnapshot) {
  core::StatsSnapshot sample;
  sample.totals.retires = 10;
  sample.totals.frees = 13;
  EXPECT_EQ(core::ReclamationLag(sample), 0u);

  std::vector<core::StatsSnapshot> samples{sample};
  core::minijson::Value root;
  ASSERT_TRUE(core::minijson::Parse(core::TimelineToJson(samples), &root));
  EXPECT_EQ(root.Find("samples")->array[0].Find("lag")->AsU64(), 0u);
}

}  // namespace
}  // namespace stacktrack
