// Microbenchmarks for the software best-effort HTM substrate: transaction begin/commit
// overhead, per-access instrumentation cost, and the non-transactional interop ops the
// slow path and reclaimer use.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>

#include "htm/htm.h"
#include "runtime/thread_registry.h"

namespace stacktrack {
namespace {

std::array<std::atomic<uint64_t>, 1024>& SharedWords() {
  alignas(64) static std::array<std::atomic<uint64_t>, 1024> words{};
  return words;
}

void BM_SoftTxEmpty(benchmark::State& state) {
  runtime::ThreadScope scope;
  for (auto _ : state) {
    const int rc = ST_HTM_BEGIN_POINT();
    benchmark::DoNotOptimize(rc);
    htm::TxCommit();
  }
}
BENCHMARK(BM_SoftTxEmpty);

void BM_SoftTxReadOnly(benchmark::State& state) {
  runtime::ThreadScope scope;
  auto& words = SharedWords();
  const std::size_t reads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const int rc = ST_HTM_BEGIN_POINT();
    benchmark::DoNotOptimize(rc);
    uint64_t sum = 0;
    for (std::size_t i = 0; i < reads; ++i) {
      sum += htm::TxLoad(words[i * 8 % words.size()]);
    }
    benchmark::DoNotOptimize(sum);
    htm::TxCommit();
  }
  state.SetItemsProcessed(state.iterations() * reads);
}
BENCHMARK(BM_SoftTxReadOnly)->Arg(8)->Arg(32)->Arg(128);

void BM_SoftTxReadWrite(benchmark::State& state) {
  runtime::ThreadScope scope;
  auto& words = SharedWords();
  const std::size_t writes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const int rc = ST_HTM_BEGIN_POINT();
    benchmark::DoNotOptimize(rc);
    for (std::size_t i = 0; i < writes; ++i) {
      std::atomic<uint64_t>& word = words[i * 8 % words.size()];
      htm::TxStore(word, htm::TxLoad(word) + 1);
    }
    htm::TxCommit();
  }
  state.SetItemsProcessed(state.iterations() * writes);
}
BENCHMARK(BM_SoftTxReadWrite)->Arg(4)->Arg(16)->Arg(64);

void BM_SafeLoad(benchmark::State& state) {
  auto& words = SharedWords();
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::SafeLoad(words[0]));
  }
}
BENCHMARK(BM_SafeLoad);

void BM_SafeCas(benchmark::State& state) {
  auto& words = SharedWords();
  uint64_t value = 0;
  for (auto _ : state) {
    htm::SafeCas(words[1], value, value + 1);
    ++value;
  }
}
BENCHMARK(BM_SafeCas);

void BM_QuarantineRange(benchmark::State& state) {
  alignas(64) static char block[256];
  for (auto _ : state) {
    htm::QuarantineRange(block, sizeof(block));
  }
}
BENCHMARK(BM_QuarantineRange);

}  // namespace
}  // namespace stacktrack

BENCHMARK_MAIN();
