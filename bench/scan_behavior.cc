// §6 "Scan behavior": cost of the global stack/register scan as a function of the
// free-batch threshold (max_free) and the thread count. The paper's observation: the
// scan amortizes to noise once it runs about once per 10 frees, and the inspected
// root-set size grows linearly with threads.
#include <cstdio>

#include "bench/workload/runner.h"
#include "ds/skiplist.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::bench {
namespace {

int Main() {
  workload::InstallCrashHandler();
  const auto env = workload::EnvConfig::Load();
  workload::PrintHeader(env,
                        "Scan behavior: StackTrack free-batch amortization (skip list)",
                        "20K nodes, 20% mutations");
  std::printf("%8s %9s %14s %12s %14s %14s %12s\n", "threads", "max_free", "ops/sec",
              "scans", "words/scan", "inspects/scan", "restarts");
  for (const uint32_t threads : env.threads) {
    const workload::Scenario scenario = workload::MapScenario(env, threads, 40000);
    for (const uint32_t max_free : {1u, 8u, 32u, 128u}) {
      core::StConfig st_config;
      st_config.max_free = max_free;
      smr::StackTrackSmr::Domain domain(st_config);
      ds::LockFreeSkipList<smr::StackTrackSmr> skiplist;
      const workload::RunResult result =
          workload::RunMapScenario<smr::StackTrackSmr>(domain, skiplist, scenario);
      const core::Stats& stats = result.stats;
      const double scans = static_cast<double>(stats.scan_calls);
      std::printf("%8u %9u %14.0f %12.0f %14.1f %14.1f %12llu\n", threads, max_free,
                  result.ops_per_sec, scans,
                  scans > 0 ? static_cast<double>(stats.scan_words) / scans : 0.0,
                  scans > 0 ? static_cast<double>(stats.scan_thread_inspects) / scans : 0.0,
                  static_cast<unsigned long long>(stats.scan_restarts));
    }
  }
  return 0;
}

}  // namespace
}  // namespace stacktrack::bench

int main() { return stacktrack::bench::Main(); }
