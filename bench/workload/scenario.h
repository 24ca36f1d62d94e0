// Declarative op-mix scenarios for the workload engine, plus the one shared parser
// for the bench environment knobs.
//
// A Scenario is the complete description of one benchmark point: what mix of
// operations to run (read/insert/remove/scan percentages), how keys are drawn
// (uniform or zipfian, range, seed), how the structure is prefilled, how many
// threads for how long, and whether per-op latency is recorded. The runner
// (runner.h) executes a Scenario against any Domain + structure; the per-figure
// binaries and bench/ycsb_kv only declare scenarios and print results.
//
// EnvConfig is the one parser for the bench environment knobs:
//   ST_BENCH_MS       per-point measure window in ms (>= 1)
//   ST_BENCH_THREADS  comma list of thread counts (each 1..runtime::kMaxThreads)
//   ST_BENCH_SEED     scenario base seed (decimal or 0x hex)
//   ST_TRACE_ARM      if set, arm event tracing for the run
// A value that is not wholly a number in range ends the process with exit status
// 2 before any worker starts. The crash handler and the banner every bench binary
// prints live beside it.
#ifndef STACKTRACK_BENCH_WORKLOAD_SCENARIO_H_
#define STACKTRACK_BENCH_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/workload/generator.h"

namespace stacktrack::bench::workload {

// Operation kinds the engine dispatches. Structure adapters map them onto their own
// surface (maps: Contains/Insert/Remove + scan as a key-range read; queues:
// Peek/Enqueue/Dequeue with scan folded into reads).
enum class OpKind : uint8_t {
  kRead = 0,
  kInsert,
  kRemove,
  kScan,
  kCount,
};
inline constexpr uint32_t kOpKinds = static_cast<uint32_t>(OpKind::kCount);

const char* OpKindName(OpKind kind);

// Percentages; must sum to at most 100, remainder goes to reads. This keeps
// "mutation_percent = 20" style declarations exact: insert 10 / remove 10 / rest
// reads is {.insert = 10, .remove = 10}.
struct OpMix {
  uint32_t insert_percent = 10;
  uint32_t remove_percent = 10;
  uint32_t scan_percent = 0;

  uint32_t read_percent() const {
    const uint32_t taken = insert_percent + remove_percent + scan_percent;
    return taken >= 100 ? 0 : 100 - taken;
  }
};

struct Scenario {
  std::string name = "custom";
  OpMix mix;
  KeyStreamSpec keys;
  uint64_t prefill = 5000;
  uint32_t threads = 4;
  uint32_t duration_ms = 150;
  uint32_t scan_length = 16;   // consecutive index keys touched per scan op
  bool inject_preemption = true;  // oversubscription preemption (runner.h)
  bool measure_latency = true;    // per-op monotonic timestamps -> histograms
};

// YCSB-style presets (Cooper et al. workload letters, adapted to this key-value
// surface). All zipfian theta 0.99 over `key_range` keys, prefilled to half range:
//   A  update-heavy  50% read / 50% insert(update)
//   B  read-mostly   95% read /  5% insert(update)
//   C  read-only    100% read
// Every preset also exists in a "+scan" variant used by the ycsb_kv secondary-index
// path (5% of reads become index scans).
inline constexpr uint64_t kYcsbKeyRange = 16384;
Scenario YcsbScenario(char letter, uint64_t key_range = kYcsbKeyRange,
                      bool with_scans = false);

// Strict parsers shared by EnvConfig and the --threads= / --ms= flags of ycsb_kv and
// robustness_lag. Each accepts only a value that is wholly a decimal number in range.
bool ParseThreadCount(const char* text, uint32_t* out);  // 1..runtime::kMaxThreads
bool ParseDurationMs(const char* text, uint32_t* out);   // >= 1

// The ST_BENCH_* environment view.
struct EnvConfig {
  uint32_t duration_ms;
  std::vector<uint32_t> threads;
  uint64_t seed;
  bool trace_arm;

  // Reads the knobs over the given defaults. An invalid value prints Parse's message
  // and exits with status 2.
  static EnvConfig Load(uint32_t default_ms = 150,
                        std::vector<uint32_t> default_threads = {1, 2, 3, 4, 6, 8, 12,
                                                                 16},
                        uint64_t default_seed = 0x5eedULL);

  // Overlays the set knobs onto *env (which holds the defaults). Returns false, with
  // *error naming the variable and its value, when a knob is not wholly a number in
  // range; *env is then unspecified.
  static bool Parse(EnvConfig* env, std::string* error);

  // Stamp the per-run knobs onto a scenario (thread count stays the caller's loop
  // variable).
  void Apply(Scenario* scenario) const {
    scenario->duration_ms = duration_ms;
    scenario->keys.seed = seed;
  }
};

// The paper's map workload (Figs. 1-5, the §6 scan study, the §5.2 ablation): 10%
// insert / 10% remove / 80% Contains over uniform keys 1..key_range, prefilled to
// half the range, with no per-op clock reads. The env knobs are applied.
Scenario MapScenario(const EnvConfig& env, uint32_t threads, uint64_t key_range);

// Prints a native-frame backtrace to stderr on SIGSEGV/SIGBUS before exiting.
void InstallCrashHandler();

// The "# title / # workload / # machine model" banner. Arms event tracing for the
// whole run first when ST_TRACE_ARM was set.
void PrintHeader(const EnvConfig& env, const char* title, const char* workload);

}  // namespace stacktrack::bench::workload

#endif  // STACKTRACK_BENCH_WORKLOAD_SCENARIO_H_
