// Workload-engine unit suite (bench/workload/): generator determinism and skew,
// histogram bucket geometry and percentile extraction, scenario presets, the
// runner's counter source, and the shared ST_BENCH_* environment parser.
//
// These tests pin the contracts the benchmark layer leans on:
//   * a KeyStream is a pure function of (seed, thread index, draw index) — replaying
//     a spec replays the run's entire key/dice sequence;
//   * the zipfian CDF really is skewed (top-1% mass) and the empirical draw
//     frequencies match the analytic mass within a sampling bound;
//   * histogram buckets contain the values mapped into them, values below the
//     sub-bucket width are exact, and merging per-thread histograms is identical to
//     recording everything into one (the runner's post-join merge step);
//   * the runner's Stats delta comes from the domain, so every scheme reports it, and
//     an oversubscribed run arms the preemption schedule for its window only;
//   * EnvConfig parses the ST_BENCH_* knobs and rejects any value that is not wholly
//     a number in range (these cases only parse; none starts a worker).
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "bench/workload/generator.h"
#include "bench/workload/histogram.h"
#include "bench/workload/runner.h"
#include "bench/workload/scenario.h"
#include "ds/list.h"
#include "gtest/gtest.h"
#include "runtime/fault.h"
#include "runtime/machine_model.h"
#include "runtime/thread_registry.h"
#include "smr/hazard.h"

namespace stacktrack::bench::workload {
namespace {

// ---- Generator ------------------------------------------------------------------

TEST(ZipfCdfTest, MonotonicAndNormalized) {
  const ZipfCdf cdf(1000, 0.99);
  ASSERT_EQ(cdf.n(), 1000u);
  double prev = 0.0;
  for (uint64_t rank = 0; rank < cdf.n(); ++rank) {
    EXPECT_GT(cdf.MassUpTo(rank), prev) << "rank " << rank;
    prev = cdf.MassUpTo(rank);
  }
  EXPECT_NEAR(cdf.MassUpTo(cdf.n() - 1), 1.0, 1e-9);
}

TEST(ZipfCdfTest, TopOnePercentCarriesTheSkew) {
  // theta=.99 over 10K ranks: the top 1% of ranks carry roughly half the mass
  // (ln(100)/ln(10000) for theta->1), vs exactly 1% under uniform.
  const uint64_t n = 10000;
  const ZipfCdf cdf(n, 0.99);
  const double top_mass = cdf.MassUpTo(n / 100 - 1);
  EXPECT_GT(top_mass, 0.40);
  EXPECT_GT(top_mass, 10.0 * 0.01);  // >10x the uniform mass of the same rank set
}

TEST(ZipfCdfTest, RankInvertsTheCdf) {
  const ZipfCdf cdf(512, 0.99);
  // u just below MassUpTo(r) must land in a rank <= r; u just above in rank r+1.
  for (uint64_t r = 0; r + 1 < cdf.n(); r += 37) {
    const double mass = cdf.MassUpTo(r);
    EXPECT_LE(cdf.Rank(mass - 1e-12), r);
    EXPECT_EQ(cdf.Rank(mass + 1e-12), r + 1);
  }
  EXPECT_EQ(cdf.Rank(0.0), 0u);
  EXPECT_LT(cdf.Rank(0.999999999), cdf.n());
}

TEST(KeyStreamTest, SameSpecSameThreadIsDeterministic) {
  KeyStreamSpec spec;
  spec.dist = KeyDist::kZipfian;
  spec.key_range = 4096;
  spec.seed = 0xfeedULL;
  const ZipfCdf cdf(spec.key_range, spec.zipf_theta);
  KeyStream a(spec, &cdf, /*thread_index=*/3);
  KeyStream b(spec, &cdf, /*thread_index=*/3);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.Next(), b.Next()) << "draw " << i;
    ASSERT_EQ(a.Dice(100), b.Dice(100)) << "dice " << i;
  }
}

TEST(KeyStreamTest, DistinctThreadsDecorrelate) {
  KeyStreamSpec spec;
  spec.key_range = 1 << 20;
  KeyStream a(spec, nullptr, 0);
  KeyStream b(spec, nullptr, 1);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);  // over a 2^20 range, collisions should be rare accidents
  // And the seed derivation itself is injective over any realistic thread count.
  std::set<uint64_t> seeds;
  for (uint32_t t = 0; t < 128; ++t) {
    seeds.insert(KeyStream::StreamSeed(0x5eedULL, t));
  }
  EXPECT_EQ(seeds.size(), 128u);
}

TEST(KeyStreamTest, KeysStayInRange) {
  KeyStreamSpec spec;
  spec.key_range = 777;
  KeyStream uniform(spec, nullptr, 0);
  spec.dist = KeyDist::kZipfian;
  const ZipfCdf cdf(spec.key_range, spec.zipf_theta);
  KeyStream zipf(spec, &cdf, 0);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t u = uniform.Next();
    const uint64_t z = zipf.Next();
    ASSERT_GE(u, 1u);
    ASSERT_LE(u, spec.key_range);
    ASSERT_GE(z, 1u);
    ASSERT_LE(z, spec.key_range);
  }
}

TEST(KeyStreamTest, ScatterRankPermutesPowerOfTwoRanges) {
  // Odd multiplier mod a power-of-two range: a bijection, so the hot ranks map to
  // distinct keys instead of piling onto collisions.
  const uint64_t range = 2048;
  std::set<uint64_t> keys;
  for (uint64_t rank = 0; rank < range; ++rank) {
    keys.insert(KeyStream::ScatterRank(rank, range));
  }
  EXPECT_EQ(keys.size(), range);
}

TEST(KeyStreamTest, EmpiricalZipfMassMatchesAnalytic) {
  // Chi-square-style sanity: draw 200K zipfian keys and compare the hot-set hit
  // frequency against the analytic CDF mass. The hot key set is computable without
  // drawing because ScatterRank is a fixed permutation.
  KeyStreamSpec spec;
  spec.dist = KeyDist::kZipfian;
  spec.key_range = 8192;
  const uint64_t hot_ranks = spec.key_range / 100;
  const ZipfCdf cdf(spec.key_range, spec.zipf_theta);
  std::set<uint64_t> hot_keys;
  for (uint64_t rank = 0; rank < hot_ranks; ++rank) {
    hot_keys.insert(1 + KeyStream::ScatterRank(rank, spec.key_range));
  }
  KeyStream keys(spec, &cdf, 0);
  const int draws = 200000;
  int hot_hits = 0;
  for (int i = 0; i < draws; ++i) {
    hot_hits += hot_keys.count(keys.Next()) != 0 ? 1 : 0;
  }
  const double empirical = static_cast<double>(hot_hits) / draws;
  const double analytic = cdf.MassUpTo(hot_ranks - 1);
  EXPECT_NEAR(empirical, analytic, 0.02);
  EXPECT_GT(empirical, 0.35);  // and the skew is real, not a tautology
}

TEST(KeyStreamTest, UniformIsRoughlyFlat) {
  KeyStreamSpec spec;
  spec.key_range = 64;
  KeyStream keys(spec, nullptr, 0);
  std::vector<int> bins(spec.key_range + 1, 0);
  const int draws = 64000;
  for (int i = 0; i < draws; ++i) {
    ++bins[keys.Next()];
  }
  const int expected = draws / static_cast<int>(spec.key_range);
  for (uint64_t k = 1; k <= spec.key_range; ++k) {
    EXPECT_GT(bins[k], expected / 2) << "key " << k;
    EXPECT_LT(bins[k], expected * 2) << "key " << k;
  }
}

// ---- Histogram ------------------------------------------------------------------

TEST(HistogramTest, BucketGeometryContainsEveryValue) {
  // Exhaustive over the exact range and the first tiers, then spot checks at every
  // power-of-two boundary up to 2^63.
  for (uint64_t v = 0; v < 1 << 14; ++v) {
    const uint32_t i = LatencyHistogram::BucketIndex(v);
    ASSERT_LE(LatencyHistogram::BucketLower(i), v) << v;
    ASSERT_GE(LatencyHistogram::BucketUpper(i), v) << v;
  }
  for (uint32_t bit = 6; bit < 63; ++bit) {
    for (const uint64_t v :
         {(1ull << bit) - 1, 1ull << bit, (1ull << bit) + 1, (1ull << bit) + 12345}) {
      const uint32_t i = LatencyHistogram::BucketIndex(v);
      ASSERT_LE(LatencyHistogram::BucketLower(i), v) << v;
      ASSERT_GE(LatencyHistogram::BucketUpper(i), v) << v;
    }
  }
}

TEST(HistogramTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    const uint32_t i = LatencyHistogram::BucketIndex(v);
    EXPECT_EQ(LatencyHistogram::BucketLower(i), v);
    EXPECT_EQ(LatencyHistogram::BucketUpper(i), v);
  }
}

TEST(HistogramTest, QuantizationErrorIsBounded) {
  // Above the exact range, bucket width / lower bound <= 1/kSubBuckets (~1.6%).
  for (const uint64_t v : {100ull, 1000ull, 123456ull, 99999999ull, 1ull << 40}) {
    const uint32_t i = LatencyHistogram::BucketIndex(v);
    const uint64_t lower = LatencyHistogram::BucketLower(i);
    const uint64_t width = LatencyHistogram::BucketUpper(i) - lower + 1;
    EXPECT_LE(width * LatencyHistogram::kSubBuckets, lower + width) << v;
  }
}

TEST(HistogramTest, PercentilesOnKnownDistribution) {
  // Values 1..100 are all below the tier-1 exactness limit (width-1 buckets up to
  // 127), so the percentiles are exact, not quantized.
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.Percentile(50), 50u);
  EXPECT_EQ(h.Percentile(99), 99u);
  EXPECT_EQ(h.Percentile(100), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(HistogramTest, PercentileClampsToTrackedMax) {
  LatencyHistogram h;
  h.Record(1000000);  // one sample: every percentile is that sample's bucket,
  h.Record(3);        // clamped to the exactly tracked max
  EXPECT_EQ(h.Percentile(99), 1000000u);
  EXPECT_EQ(h.Percentile(100), 1000000u);
  EXPECT_EQ(h.Percentile(1), 3u);
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, MergeEqualsSingleWriter) {
  // The runner's contract: per-thread histograms merged post-join must be
  // indistinguishable from one histogram that saw every sample.
  runtime::Xorshift128 rng(0xabcdULL);
  LatencyHistogram parts[4];
  LatencyHistogram whole;
  for (int i = 0; i < 40000; ++i) {
    const uint64_t v = rng.NextBounded(1u << 22);
    parts[i % 4].Record(v);
    whole.Record(v);
  }
  LatencyHistogram merged;
  for (const LatencyHistogram& part : parts) {
    merged.Merge(part);
  }
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(merged.Percentile(p), whole.Percentile(p)) << "p" << p;
  }
}

// ---- Scenario / presets ---------------------------------------------------------

TEST(OpMixTest, ReadPercentIsTheRemainder) {
  OpMix mix;
  mix.insert_percent = 10;
  mix.remove_percent = 10;
  mix.scan_percent = 5;
  EXPECT_EQ(mix.read_percent(), 75u);
  mix.insert_percent = 60;
  mix.remove_percent = 60;
  EXPECT_EQ(mix.read_percent(), 0u);  // saturates instead of underflowing
}

TEST(PickOpTest, FrequenciesMatchTheMix) {
  OpMix mix;
  mix.insert_percent = 10;
  mix.remove_percent = 10;
  mix.scan_percent = 5;
  KeyStreamSpec spec;
  KeyStream keys(spec, nullptr, 0);
  uint64_t counts[kOpKinds] = {};
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++counts[static_cast<uint32_t>(PickOp(mix, keys))];
  }
  EXPECT_NEAR(counts[static_cast<uint32_t>(OpKind::kInsert)] / double(draws), 0.10, 0.01);
  EXPECT_NEAR(counts[static_cast<uint32_t>(OpKind::kRemove)] / double(draws), 0.10, 0.01);
  EXPECT_NEAR(counts[static_cast<uint32_t>(OpKind::kScan)] / double(draws), 0.05, 0.01);
  EXPECT_NEAR(counts[static_cast<uint32_t>(OpKind::kRead)] / double(draws), 0.75, 0.01);
}

TEST(ScenarioTest, YcsbPresets) {
  const Scenario a = YcsbScenario('a');
  EXPECT_EQ(a.mix.insert_percent, 50u);
  EXPECT_EQ(a.mix.read_percent(), 50u);
  EXPECT_EQ(a.keys.dist, KeyDist::kZipfian);
  EXPECT_EQ(a.prefill, a.keys.key_range / 2);

  const Scenario b = YcsbScenario('b');
  EXPECT_EQ(b.mix.insert_percent, 5u);
  EXPECT_EQ(b.mix.read_percent(), 95u);

  const Scenario c = YcsbScenario('c');
  EXPECT_EQ(c.mix.insert_percent, 0u);
  EXPECT_EQ(c.mix.read_percent(), 100u);

  const Scenario scan = YcsbScenario('b', 4096, /*with_scans=*/true);
  EXPECT_EQ(scan.mix.scan_percent, 5u);
  EXPECT_EQ(scan.keys.key_range, 4096u);
  EXPECT_NE(scan.name.find("scan"), std::string::npos);
}

TEST(ScenarioTest, OpKindNamesAreStable) {
  // check_slo.sh and the JSON consumers key on these strings.
  EXPECT_STREQ(OpKindName(OpKind::kRead), "read");
  EXPECT_STREQ(OpKindName(OpKind::kInsert), "insert");
  EXPECT_STREQ(OpKindName(OpKind::kRemove), "remove");
  EXPECT_STREQ(OpKindName(OpKind::kScan), "scan");
}

// ---- Runner ---------------------------------------------------------------------

// The window's Stats delta comes from domain.Snapshot(), so a scheme that keeps its
// counters domain-side (hazard) reports its retires too.
TEST(RunnerTest, StatsDeltaComesFromTheDomain) {
  Scenario scenario;
  scenario.mix.insert_percent = 50;
  scenario.mix.remove_percent = 50;
  scenario.keys.key_range = 64;
  scenario.prefill = 32;
  scenario.threads = 1;
  scenario.duration_ms = 20;
  scenario.measure_latency = false;
  ds::LockFreeList<smr::HazardSmr> list;
  const RunResult result = RunMapScenario<smr::HazardSmr>(list, scenario);
  EXPECT_GT(result.ops_by_kind[static_cast<uint32_t>(OpKind::kRemove)], 0u);
  EXPECT_GT(result.stats.retires, 0u);
}

// Past the machine model's hardware contexts the runner arms kThreadStall as the
// preemption schedule for the measured window, and disarms it afterwards.
TEST(RunnerTest, OversubscribedRunArmsPreemptionForTheWindowOnly) {
  runtime::MachineConfig machine;
  machine.physical_cores = 1;
  machine.smt_ways = 1;
  machine.preempt_prob = 1.0;  // every traversal step fires...
  machine.preempt_delay_us = 0;  // ...without sleeping
  runtime::MachineModel::Instance().Configure(machine);
  Scenario scenario;
  scenario.keys.key_range = 64;
  scenario.prefill = 32;
  scenario.threads = 2;
  scenario.duration_ms = 20;
  scenario.measure_latency = false;
  ds::LockFreeList<smr::HazardSmr> list;
  ASSERT_FALSE(runtime::fault::AnyArmed());
  const RunResult result = RunMapScenario<smr::HazardSmr>(list, scenario);
  runtime::MachineModel::Instance().Configure(runtime::MachineConfig{});
  EXPECT_GT(result.total_ops, 0u);
  EXPECT_GT(runtime::fault::Fires(runtime::fault::Site::kThreadStall), 0u);
  EXPECT_FALSE(runtime::fault::AnyArmed()) << "the run left a fault site armed";
}

// ---- EnvConfig ------------------------------------------------------------------

class EnvConfigTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("ST_BENCH_MS");
    unsetenv("ST_BENCH_THREADS");
    unsetenv("ST_BENCH_SEED");
    unsetenv("ST_TRACE_ARM");
  }
};

TEST_F(EnvConfigTest, DefaultsWhenUnset) {
  TearDown();
  const EnvConfig env = EnvConfig::Load(250, {2, 4}, 0x1234ULL);
  EXPECT_EQ(env.duration_ms, 250u);
  EXPECT_EQ(env.threads, (std::vector<uint32_t>{2, 4}));
  EXPECT_EQ(env.seed, 0x1234ULL);
  EXPECT_FALSE(env.trace_arm);
}

TEST_F(EnvConfigTest, ParsesAllKnobs) {
  setenv("ST_BENCH_MS", "75", 1);
  setenv("ST_BENCH_THREADS", "1,8,16", 1);
  setenv("ST_BENCH_SEED", "0xdead", 1);
  setenv("ST_TRACE_ARM", "1", 1);
  const EnvConfig env = EnvConfig::Load();
  EXPECT_EQ(env.duration_ms, 75u);
  EXPECT_EQ(env.threads, (std::vector<uint32_t>{1, 8, 16}));
  EXPECT_EQ(env.seed, 0xdeadULL);
  EXPECT_TRUE(env.trace_arm);
}

TEST_F(EnvConfigTest, DecimalSeedAndSingleThread) {
  setenv("ST_BENCH_SEED", "42", 1);
  setenv("ST_BENCH_THREADS", "6", 1);
  const EnvConfig env = EnvConfig::Load();
  EXPECT_EQ(env.seed, 42u);
  EXPECT_EQ(env.threads, (std::vector<uint32_t>{6}));
}

// Each case only parses: a rejected value must name its variable in the error.
TEST_F(EnvConfigTest, RejectsValuesNotWhollyANumberInRange) {
  const std::pair<const char*, const char*> bad[] = {
      {"ST_BENCH_THREADS", "abc"}, {"ST_BENCH_THREADS", ""},     {"ST_BENCH_THREADS", "0"},
      {"ST_BENCH_THREADS", "65"},  {"ST_BENCH_THREADS", "-1"},   {"ST_BENCH_THREADS", "4x"},
      {"ST_BENCH_THREADS", " 4"},  {"ST_BENCH_THREADS", "1,,2"}, {"ST_BENCH_THREADS", "1,"},
      {"ST_BENCH_THREADS", "0x4"}, {"ST_BENCH_THREADS", "99999999999999999999"},
      {"ST_BENCH_MS", "abc"},      {"ST_BENCH_MS", ""},          {"ST_BENCH_MS", "0"},
      {"ST_BENCH_MS", "-5"},       {"ST_BENCH_MS", "10ms"},      {"ST_BENCH_MS", "4294967296"},
      {"ST_BENCH_SEED", "abc"},    {"ST_BENCH_SEED", "-1"},      {"ST_BENCH_SEED", "12 "},
  };
  for (const auto& [name, value] : bad) {
    setenv(name, value, 1);
    EnvConfig env{150, {1}, 0, false};
    std::string error;
    EXPECT_FALSE(EnvConfig::Parse(&env, &error)) << name << "=\"" << value << '"';
    EXPECT_NE(error.find(name), std::string::npos) << error;
    unsetenv(name);
  }
  setenv("ST_BENCH_THREADS", "1,64", 1);
  setenv("ST_BENCH_MS", "1", 1);
  EnvConfig env{150, {1}, 0, false};
  std::string error;
  ASSERT_TRUE(EnvConfig::Parse(&env, &error)) << error;
  EXPECT_EQ(env.threads, (std::vector<uint32_t>{1, 64}));
  EXPECT_EQ(env.duration_ms, 1u);
}

// The --threads= / --ms= flags of ycsb_kv and robustness_lag share these parsers.
TEST(FlagParseTest, ThreadCountAndWindowBounds) {
  uint32_t value = 0;
  EXPECT_TRUE(ParseThreadCount("1", &value));
  EXPECT_EQ(value, 1u);
  const std::string max = std::to_string(runtime::kMaxThreads);
  EXPECT_TRUE(ParseThreadCount(max.c_str(), &value));
  EXPECT_EQ(value, runtime::kMaxThreads);
  EXPECT_FALSE(ParseThreadCount(std::to_string(runtime::kMaxThreads + 1).c_str(), &value));
  EXPECT_FALSE(ParseThreadCount("0", &value));
  EXPECT_FALSE(ParseThreadCount("-1", &value));
  EXPECT_FALSE(ParseThreadCount("two", &value));
  EXPECT_TRUE(ParseDurationMs("4294967295", &value));
  EXPECT_EQ(value, 4294967295u);
  EXPECT_FALSE(ParseDurationMs("0", &value));
  EXPECT_FALSE(ParseDurationMs("1.5", &value));
}

TEST_F(EnvConfigTest, ApplyStampsScenario) {
  setenv("ST_BENCH_MS", "99", 1);
  setenv("ST_BENCH_SEED", "7", 1);
  const EnvConfig env = EnvConfig::Load();
  Scenario scenario;
  scenario.threads = 12;  // Apply must not touch the caller's thread choice
  env.Apply(&scenario);
  EXPECT_EQ(scenario.duration_ms, 99u);
  EXPECT_EQ(scenario.keys.seed, 7u);
  EXPECT_EQ(scenario.threads, 12u);
}

}  // namespace
}  // namespace stacktrack::bench::workload
