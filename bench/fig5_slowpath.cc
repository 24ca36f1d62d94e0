// Figure 5: slow-path sensitivity on the skip list. Operations are forced onto the
// software-only fallback with probability 0 / 10 / 50 / 100%; throughput is reported
// relative to the 0% (all-transactional) configuration, as in the paper.
#include <cstdio>

#include "bench/workload/runner.h"
#include "ds/skiplist.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::bench {
namespace {

double Point(const workload::Scenario& scenario, double slow_fraction) {
  core::StConfig st_config;
  st_config.forced_slow_fraction = slow_fraction;
  smr::StackTrackSmr::Domain domain(st_config);
  ds::LockFreeSkipList<smr::StackTrackSmr> skiplist;
  return workload::RunMapScenario<smr::StackTrackSmr>(domain, skiplist, scenario)
      .ops_per_sec;
}

int Main() {
  workload::InstallCrashHandler();
  const auto env = workload::EnvConfig::Load();
  workload::PrintHeader(env, "Fig 5: StackTrack slow-path sensitivity (skip list)",
                        "100K nodes, 20% mutations; throughput relative to Slow-0");
  std::printf("%8s %10s %10s %10s %10s\n", "threads", "Slow-0", "Slow-10", "Slow-50",
              "Slow-100");
  for (const uint32_t threads : env.threads) {
    const workload::Scenario scenario = workload::MapScenario(env, threads, 200000);
    const double base = Point(scenario, 0.0);
    const double slow10 = Point(scenario, 0.10);
    const double slow50 = Point(scenario, 0.50);
    const double slow100 = Point(scenario, 1.0);
    const double scale = base > 0 ? 100.0 / base : 0.0;
    std::printf("%8u %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", threads, 100.0, slow10 * scale,
                slow50 * scale, slow100 * scale);
  }
  return 0;
}

}  // namespace
}  // namespace stacktrack::bench

int main() { return stacktrack::bench::Main(); }
