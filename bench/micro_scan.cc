// Microbenchmark for the reclamation scan path under concurrent reclaimers.
//
// Scenario: a fixed population of "victim" contexts pins a set of candidate nodes
// through their tracked frames (set up single-threaded, before any scan, so every
// root sweep observes the pins). Each bench thread acts as an independent reclaimer
// whose free set holds its own slice of the pinned candidates and repeatedly runs the
// hashed SCAN_AND_FREE: because every candidate is pinned, each scan is a full
// verdict round (a private root-table collection + one range probe per candidate)
// that frees nothing — a steady-state workload whose cost is exactly the scan path.
// Every reclaimer collects its own table each round, so collection cost grows with
// the reclaimer count.
//
// Run with --benchmark_format=json; the committed BENCH_scan.json file records
// candidate verdicts per second (items_per_second) for two commits (pre/post).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "core/free_proc.h"
#include "core/thread_context.h"
#include "runtime/pool_alloc.h"
#include "runtime/thread_registry.h"

namespace stacktrack {
namespace {

constexpr int kMaxReclaimers = 8;
constexpr std::size_t kCandidatesPerReclaimer = 32;
constexpr std::size_t kTotalCandidates = kMaxReclaimers * kCandidatesPerReclaimer;
constexpr std::size_t kNodeBytes = 64;

// Two victim contexts jointly pin all candidates: 6 frames x 48 words = 288 root
// words each, 256 of which are used. Victims never run operations, so their
// splits/oper counters never move and no inspection retries.
constexpr int kVictims = 2;
constexpr uint32_t kFrameWords = core::kMaxFrameWords;
constexpr uint32_t kFramesPerVictim = core::kMaxFrames;

core::StConfig BenchConfig() {
  core::StConfig config;
  config.hashed_scan = true;
  config.max_free = 64;  // above the working-set size: no back-pressure interference
  return config;
}

struct Victim {
  explicit Victim(uint32_t tid) : ctx(tid, BenchConfig()) {
    for (uint32_t f = 0; f < kFramesPerVictim; ++f) {
      ctx.RegisterFrame(words[f], kFrameWords);
    }
  }
  ~Victim() {
    for (uint32_t f = kFramesPerVictim; f-- > 0;) {
      ctx.DeregisterFrame(words[f]);
    }
  }
  core::StContext ctx;
  uintptr_t words[kFramesPerVictim][kFrameWords] = {};
};

struct Fixture {
  runtime::ThreadScope* scope = nullptr;
  uint32_t victim_tids[kVictims] = {};
  Victim* victims[kVictims] = {};
  void* candidates[kTotalCandidates] = {};
};
Fixture g_fixture;

// Runs single-threaded before each thread-count variant: register the victims,
// allocate the candidates, and pin each one in a victim frame word before any
// reclaimer can scan.
void SetUpPinnedCandidates(const benchmark::State&) {
  auto& pool = runtime::PoolAllocator::Instance();
  g_fixture.scope = new runtime::ThreadScope();
  for (int v = 0; v < kVictims; ++v) {
    g_fixture.victim_tids[v] = runtime::ThreadRegistry::Instance().RegisterCurrentThread();
    g_fixture.victims[v] = new Victim(g_fixture.victim_tids[v]);
  }
  for (std::size_t i = 0; i < kTotalCandidates; ++i) {
    void* node = pool.Alloc(kNodeBytes);
    g_fixture.candidates[i] = node;
    Victim& victim = *g_fixture.victims[i / (kTotalCandidates / kVictims)];
    const std::size_t local = i % (kTotalCandidates / kVictims);
    victim.words[local / kFrameWords][local % kFrameWords] =
        reinterpret_cast<uintptr_t>(node);
  }
}

void TearDownPinnedCandidates(const benchmark::State&) {
  auto& pool = runtime::PoolAllocator::Instance();
  for (int v = kVictims; v-- > 0;) {
    delete g_fixture.victims[v];
    g_fixture.victims[v] = nullptr;
    runtime::ThreadRegistry::Instance().Deregister(g_fixture.victim_tids[v]);
  }
  for (void*& node : g_fixture.candidates) {
    pool.Free(node);
    node = nullptr;
  }
  delete g_fixture.scope;
  g_fixture.scope = nullptr;
}

// One reclaimer: its free set holds its slice of pinned candidates; every iteration
// is a full hashed scan round over them. items_per_second = candidate verdicts/sec.
void BM_ScanHashedConcurrentReclaimers(benchmark::State& state) {
  runtime::ThreadScope scope;
  core::StContext ctx(scope.tid(), BenchConfig());
  const std::size_t begin = static_cast<std::size_t>(state.thread_index()) *
                            kCandidatesPerReclaimer;
  for (std::size_t i = 0; i < kCandidatesPerReclaimer; ++i) {
    ctx.MutableFreeSet().push_back(g_fixture.candidates[begin + i]);
  }

  const core::Stats before = ctx.stats;
  for (auto _ : state) {
    core::ScanAndFreeHashed(ctx);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCandidatesPerReclaimer));
  state.counters["scan_words"] = static_cast<double>(ctx.stats.scan_words - before.scan_words);
  // Candidates are owned (and later freed) by the fixture; the context must not hand
  // them to the deferred list at destruction.
  ctx.MutableFreeSet().clear();

  if (ctx.stats.frees != before.frees) {
    state.SkipWithError("pinned candidate was freed: scan verdict is wrong");
  }
}
BENCHMARK(BM_ScanHashedConcurrentReclaimers)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Setup(SetUpPinnedCandidates)
    ->Teardown(TearDownPinnedCandidates);

// Reference point: the per-candidate Algorithm 1 loop (no root table at all).
void BM_ScanPerCandidateConcurrentReclaimers(benchmark::State& state) {
  runtime::ThreadScope scope;
  core::StConfig config = BenchConfig();
  config.hashed_scan = false;
  core::StContext ctx(scope.tid(), config);
  const std::size_t begin = static_cast<std::size_t>(state.thread_index()) *
                            kCandidatesPerReclaimer;
  for (std::size_t i = 0; i < kCandidatesPerReclaimer; ++i) {
    ctx.MutableFreeSet().push_back(g_fixture.candidates[begin + i]);
  }

  const core::Stats before = ctx.stats;
  for (auto _ : state) {
    core::ScanAndFree(ctx);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCandidatesPerReclaimer));
  ctx.MutableFreeSet().clear();

  if (ctx.stats.frees != before.frees) {
    state.SkipWithError("pinned candidate was freed: scan verdict is wrong");
  }
}
BENCHMARK(BM_ScanPerCandidateConcurrentReclaimers)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime()
    ->Setup(SetUpPinnedCandidates)
    ->Teardown(TearDownPinnedCandidates);

}  // namespace
}  // namespace stacktrack

BENCHMARK_MAIN();
