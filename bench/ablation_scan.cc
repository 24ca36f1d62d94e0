// Ablation: per-candidate scanning (Algorithm 1 as written) vs. the §5.2 hashed-scan
// optimization (one root sweep per scan, range probe per candidate). The paper notes
// the optimization "did not give a significant performance advantage, because the cost
// of the free procedure scan is amortized over the free calls" — this bench checks
// that claim on our substrate, plus an aggressive max_free=1 regime where the
// per-candidate variant does the most redundant work.
#include <cstdio>

#include "bench/workload/runner.h"
#include "ds/list.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::bench {
namespace {

double Point(const workload::Scenario& scenario, bool hashed, uint32_t max_free) {
  core::StConfig st_config;
  st_config.hashed_scan = hashed;
  st_config.max_free = max_free;
  smr::StackTrackSmr::Domain domain(st_config);
  ds::LockFreeList<smr::StackTrackSmr> list;
  return workload::RunMapScenario<smr::StackTrackSmr>(domain, list, scenario).ops_per_sec;
}

int Main() {
  const auto env = workload::EnvConfig::Load();
  workload::PrintHeader(env, "Ablation: per-candidate scan vs hashed scan (§5.2)",
                        "list, 5K nodes, 20% mutations");
  std::printf("%8s %9s %16s %16s %9s\n", "threads", "max_free", "per-candidate", "hashed",
              "speedup");
  for (const uint32_t threads : env.threads) {
    const workload::Scenario scenario = workload::MapScenario(env, threads, 10000);
    for (const uint32_t max_free : {1u, 32u}) {
      const double plain = Point(scenario, false, max_free);
      const double hashed = Point(scenario, true, max_free);
      std::printf("%8u %9u %16.0f %16.0f %8.2fx\n", threads, max_free, plain, hashed,
                  plain > 0 ? hashed / plain : 0.0);
    }
  }
  return 0;
}

}  // namespace
}  // namespace stacktrack::bench

int main() { return stacktrack::bench::Main(); }
