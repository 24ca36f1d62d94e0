// Microbenchmarks for the software best-effort HTM substrate: transaction begin/commit
// overhead, per-access instrumentation cost, and the non-transactional interop ops the
// slow path and reclaimer use.
//
// `micro_htm --predictor-ab` switches to the split-predictor A/B harness instead (see
// its section below).
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "core/split_engine.h"
#include "core/stats.h"
#include "htm/htm.h"
#include "runtime/machine_model.h"
#include "runtime/rand.h"
#include "runtime/thread_registry.h"
#include "smr/stacktrack_smr.h"

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

// ---------------------------------------------------------------------------
// Split-predictor A/B harness (`micro_htm --predictor-ab`).
//
// The unit under test is the split-length predictor policy (ST_PREDICTOR=streak|cost)
// driving real split-engine operations, run in interleaved slices. Each preset pins a
// deterministic capacity budget through the MachineModel, so long segments hit the
// soft backend's read-count cliff exactly where the model says: the streak rule pays
// five aborts per -1 step on the way down and then oscillates across the cliff
// forever (five commits grow the limit back over it), while the cost model shrinks
// multiplicatively and parks below its remembered ceiling.
// tools/check_predictor_ab.sh gates CI on the output.
// ---------------------------------------------------------------------------

namespace predictor_ab {

// Each word sits on its own cache line so the access pattern maps 1:1 onto stripes,
// like real node fields do.
constexpr std::size_t kWordStride = 8;
constexpr std::size_t kTableWords = 1024;

std::atomic<uint64_t>& TableWord(std::size_t i) {
  alignas(64) static std::array<std::atomic<uint64_t>, kTableWords * kWordStride> table{};
  return table[(i % kTableWords) * kWordStride];
}

unsigned EnvOr(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? static_cast<unsigned>(std::strtoul(v, nullptr, 10))
                                      : fallback;
}

struct Preset {
  const char* name;
  std::size_t key_space;    // distinct words touched (zipf-distributed over these)
  double zipf_theta;        // 0 = uniform
  std::size_t tx_accesses;  // shared accesses per operation (one per basic block)
  double write_frac;        // fraction of accesses that are read-modify-writes
  uint32_t capacity_lines;  // modeled per-transaction footprint budget
};

// read_only stays far from the capacity cliff (budget >> footprint): both policies
// see commit-only cells, so the within-5% gate measures pure decision-path overhead.
// write_heavy and zipfian_conflict run footprints past the budget — the predictors
// must learn per-(op, segment) limits under capacity pressure, with zipfian_conflict
// adding cross-thread conflict aborts on the zipf head so the cost model's cause-
// family split (gentle conflict shrink, hard capacity ceiling) is exercised too.
constexpr Preset kPresets[] = {
    {"read_only", 16, 0.99, 24, 0.0, 4096},
    {"write_heavy", 16, 0.60, 48, 0.5, 32},
    {"zipfian_conflict", 48, 0.99, 56, 0.5, 32},
};

// Operations alternate between four op ids with stepped footprints so the predictor
// table is exercised across cells, as data-structure workloads do (fig3/fig4 ops).
constexpr std::size_t OpAccesses(const Preset& preset, uint32_t op_id) {
  const std::size_t shrink = static_cast<std::size_t>(op_id) * 6;
  return preset.tx_accesses > shrink + 8 ? preset.tx_accesses - shrink : 8;
}

struct Cell {
  uint64_t ops = 0;
  core::Stats stats;  // per-slice StatsRegistry delta (abort taxonomy, predictor moves)
  double seconds = 0;
  double ops_per_sec = 0;
};

Cell RunCell(const Preset& preset, core::PredictorKind kind, unsigned threads,
             unsigned duration_ms) {
  core::SelectPredictor(kind);
  // Every slice starts cold: no warm-table inheritance across slices, so both
  // policies pay their own convergence inside the measured window.
  core::PredictorWarmTable::Instance().Reset();

  runtime::MachineConfig machine;
  machine.physical_cores = 8;  // threads <= cores: base budget, no spurious draws
  machine.smt_ways = 2;
  machine.base_capacity_lines = preset.capacity_lines;
  machine.smt_capacity_lines = preset.capacity_lines;
  runtime::MachineModel::Instance().Configure(machine);

  const core::Stats before = core::StatsRegistry::Instance().Sum();
  Cell cell;
  {
    smr::StackTrackSmr::Domain domain;  // default StConfig: initial limit 50
    std::atomic<bool> stop{false};
    std::vector<uint64_t> ops(threads, 0);

    auto worker = [&](unsigned t) {
      runtime::ThreadScope scope;
      core::StContext& ctx = domain.AcquireHandle();
      // The loop cursor lives in a tracked frame slot, like the ds/ traversal
      // pointers: an aborted segment's rollback restores it to the segment's entry
      // value, so the retry replays exactly the accesses the failed attempt made.
      core::TrackedFrame<1> frame(ctx);
      runtime::ZipfGenerator zipf(preset.key_space, preset.zipf_theta, /*seed=*/2069 + t);
      runtime::Xorshift128 rng(0xcafe + t);
      std::size_t keys[64];
      const std::size_t write_limit =
          static_cast<std::size_t>(preset.write_frac * 2 * static_cast<double>(preset.tx_accesses));
      while (!stop.load(std::memory_order_relaxed)) {
        const uint32_t op_id = static_cast<uint32_t>(ops[t] & 3);
        const std::size_t accesses = OpAccesses(preset, op_id);
        // Keys drawn outside the operation so aborted segments replay the same
        // footprint (and the RNG stays out of the measured abort window).
        for (std::size_t i = 0; i < accesses; ++i) {
          keys[i] = preset.zipf_theta > 0 ? zipf.Next() : rng.NextBounded(preset.key_space);
        }
        frame.words[0] = 0;  // before OP_BEGIN: the first segment's snapshot holds 0
        ST_OP_BEGIN(ctx, op_id);
        while (frame.words[0] < accesses) {
          ST_CHECKPOINT(ctx);
          const std::size_t i = frame.words[0];
          std::atomic<uint64_t>& word = TableWord(keys[i]);
          const uint64_t v = ctx.Load(word);
          if (preset.write_frac > 0 && (i % 2 == 0) && i < write_limit) {
            ctx.Store(word, v + 1);
          }
          frame.words[0] = i + 1;
        }
        ST_OP_END(ctx);
        ++ops[t];
      }
    };

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
    stop.store(true);
    for (auto& th : pool) {
      th.join();
    }
    cell.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    for (unsigned t = 0; t < threads; ++t) {
      cell.ops += ops[t];
    }
  }  // domain dtor folds every worker context's Stats into the registry total
  cell.stats = core::StatsRegistry::Instance().Sum();
  cell.stats -= before;
  cell.ops_per_sec = static_cast<double>(cell.ops) / cell.seconds;
  return cell;
}

int Main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  const unsigned threads = EnvOr("ST_BENCH_THREADS", 4);
  const unsigned duration_ms = EnvOr("ST_BENCH_MS", 400);

  const core::PredictorKind kinds[] = {core::PredictorKind::kStreak,
                                       core::PredictorKind::kCost};
  // Interleaved slices: host drift lands on both policies equally instead of biasing
  // whichever ran second.
  constexpr unsigned kReps = 4;

  std::string json = "{\n  \"threads\": " + std::to_string(threads) +
                     ",\n  \"duration_ms\": " + std::to_string(duration_ms) +
                     ",\n  \"cells\": [\n";
  bool first = true;
  for (const Preset& preset : kPresets) {
    Cell cells[2];
    for (unsigned rep = 0; rep < kReps; ++rep) {
      for (int k = 0; k < 2; ++k) {
        const Cell slice = RunCell(preset, kinds[k], threads, duration_ms / kReps);
        cells[k].ops += slice.ops;
        cells[k].seconds += slice.seconds;
        cells[k].stats += slice.stats;
      }
    }
    for (int k = 0; k < 2; ++k) {
      Cell& cell = cells[k];
      cell.ops_per_sec = static_cast<double>(cell.ops) / cell.seconds;
      const core::Stats& s = cell.stats;
      std::printf(
          "PRED-AB preset=%s predictor=%s threads=%u ops_per_sec=%.0f ops=%llu "
          "aborts_capacity=%llu aborts_conflict=%llu slow_segments=%llu "
          "predictor_increases=%llu predictor_decreases=%llu\n",
          preset.name, core::PredictorName(kinds[k]), threads, cell.ops_per_sec,
          static_cast<unsigned long long>(cell.ops),
          static_cast<unsigned long long>(s.aborts_capacity),
          static_cast<unsigned long long>(s.aborts_conflict),
          static_cast<unsigned long long>(s.segments_slow),
          static_cast<unsigned long long>(s.predictor_increases),
          static_cast<unsigned long long>(s.predictor_decreases));
      std::printf(
          "PRED-AB-CAUSES preset=%s predictor=%s conflict=%llu capacity=%llu "
          "explicit=%llu other=%llu\n",
          preset.name, core::PredictorName(kinds[k]),
          static_cast<unsigned long long>(s.aborts_conflict),
          static_cast<unsigned long long>(s.aborts_capacity),
          static_cast<unsigned long long>(s.aborts_explicit),
          static_cast<unsigned long long>(s.aborts_other));

      if (!first) {
        json += ",\n";
      }
      first = false;
      json += "    {\"preset\": \"" + std::string(preset.name) + "\", \"predictor\": \"" +
              core::PredictorName(kinds[k]) +
              "\", \"ops_per_sec\": " + std::to_string(cell.ops_per_sec) +
              ", \"ops\": " + std::to_string(cell.ops) +
              ", \"aborts_capacity\": " + std::to_string(s.aborts_capacity) +
              ", \"aborts_conflict\": " + std::to_string(s.aborts_conflict) +
              ", \"aborts_explicit\": " + std::to_string(s.aborts_explicit) +
              ", \"aborts_other\": " + std::to_string(s.aborts_other) +
              ", \"slow_segments\": " + std::to_string(s.segments_slow) +
              ", \"predictor_increases\": " + std::to_string(s.predictor_increases) +
              ", \"predictor_decreases\": " + std::to_string(s.predictor_decreases) + "}";
    }
  }
  json += "\n  ]\n}\n";

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_htm: cannot write %s\n", json_path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace predictor_ab

}  // namespace
}  // namespace stacktrack

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--predictor-ab") == 0) {
      return stacktrack::predictor_ab::Main(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
