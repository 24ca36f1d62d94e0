// Microbenchmarks for the per-scheme instrumentation costs the paper reasons about:
// the hazard-pointer publish+fence, the epoch announcement, the StackTrack split
// checkpoint (a counter increment in the common case), register exposure at segment
// commit, one reclaimer-side thread inspection, and the cost of one hop of a list
// traversal under every registered scheme.
#include <benchmark/benchmark.h>

#include <atomic>

#include "core/free_proc.h"
#include "ds/list.h"
#include "smr/registry.h"

namespace stacktrack {
namespace {

void BM_HazardProtect(benchmark::State& state) {
  runtime::ThreadScope scope;
  smr::HazardSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  static std::atomic<uint64_t> field{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Protect(field, 0));  // load + publish + fence + reload
  }
}
BENCHMARK(BM_HazardProtect);

void BM_EpochOpBrackets(benchmark::State& state) {
  runtime::ThreadScope scope;
  smr::EpochSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  for (auto _ : state) {
    h.OpBegin(0);
    h.OpEnd();
  }
}
BENCHMARK(BM_EpochOpBrackets);

void BM_StCheckpointNoCommit(benchmark::State& state) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.initial_split_limit = 1u << 30;  // never actually split
  config.max_split_limit = 1u << 30;
  smr::StackTrackSmr::Domain domain(config);
  auto& h = domain.AcquireHandle();
  SMR_OP_BEGIN(h, 0);
  for (auto _ : state) {
    SMR_CHECKPOINT(h);  // common case: one private counter increment + compare
  }
  SMR_OP_END(h);
}
BENCHMARK(BM_StCheckpointNoCommit);

void BM_StSegmentCommitAndRearm(benchmark::State& state) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.initial_split_limit = 1;  // every checkpoint commits and re-arms
  config.max_split_limit = 1;
  smr::StackTrackSmr::Domain domain(config);
  auto& h = domain.AcquireHandle();
  SMR_OP_BEGIN(h, 1);
  for (auto _ : state) {
    SMR_CHECKPOINT(h);  // expose registers + commit + begin next segment
  }
  SMR_OP_END(h);
}
BENCHMARK(BM_StSegmentCommitAndRearm);

void BM_StOpBrackets(benchmark::State& state) {
  runtime::ThreadScope scope;
  smr::StackTrackSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  for (auto _ : state) {
    SMR_OP_BEGIN(h, 2);
    SMR_OP_END(h);
  }
}
BENCHMARK(BM_StOpBrackets);

void BM_InspectThread(benchmark::State& state) {
  runtime::ThreadScope scope;
  smr::StackTrackSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  core::TrackedFrame<16> frame(h);
  void* probe = runtime::PoolAllocator::Instance().Alloc(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::InspectThread(h, h, reinterpret_cast<uintptr_t>(probe), 64,
                                                 /*check_refset=*/false));
  }
  runtime::PoolAllocator::Instance().Free(probe);
}
BENCHMARK(BM_InspectThread);

// One hop of a list traversal: Contains of a key past the last node walks all
// range(0) nodes, and `per_hop` is the time per node visited (the op brackets are
// amortized over the walk). LeakySmr is the uninstrumented baseline — plain acquire
// loads; each other scheme pays what its traversal pays per hop: the hazard publish
// and fence, DTA's anchor hook, and for StackTrack transactional loads, checkpoints
// and its share of segment commits. One instance per registered scheme, so a hot path
// that gains a call shows up here.
template <typename Smr>
void BM_ListHop(benchmark::State& state) {
  runtime::ThreadScope scope;
  typename Smr::Domain domain;
  auto& h = domain.AcquireHandle();
  ds::LockFreeList<Smr> list;
  const uint64_t nodes = static_cast<uint64_t>(state.range(0));
  for (uint64_t key = 1; key <= nodes; ++key) {
    list.Insert(h, key * 2, key);
  }
  const uint64_t past_last = nodes * 2 + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.Contains(h, past_last));
  }
  state.counters["per_hop"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * static_cast<double>(nodes),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_TEMPLATE(BM_ListHop, smr::LeakySmr)->Arg(256);
BENCHMARK_TEMPLATE(BM_ListHop, smr::EpochSmr)->Arg(256);
BENCHMARK_TEMPLATE(BM_ListHop, smr::HazardSmr)->Arg(256);
BENCHMARK_TEMPLATE(BM_ListHop, smr::DtaSmr)->Arg(256);
BENCHMARK_TEMPLATE(BM_ListHop, smr::StackTrackSmr)->Arg(256);
BENCHMARK_TEMPLATE(BM_ListHop, smr::HyalineSmr)->Arg(256);

}  // namespace
}  // namespace stacktrack

BENCHMARK_MAIN();
