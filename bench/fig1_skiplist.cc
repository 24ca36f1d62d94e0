// Figure 1 (right): lock-free skip-list throughput, 100K nodes, 20% mutations.
// Runs on the shared workload engine; see fig1_list.cc. --scheme= adds columns.
#include "bench/scheme_cli.h"
#include "bench/workload/runner.h"
#include "ds/skiplist.h"

int main(int argc, char** argv) {
  namespace workload = stacktrack::bench::workload;
  return stacktrack::bench::RunThroughputFigure(
      argc, argv, {"original", "hazard", "epoch", "stacktrack"},
      "Fig 1: Skip-list throughput (ops/sec)", "100K nodes, 20% mutations, keys 1..200000",
      [](const workload::EnvConfig& env, uint32_t threads) {
        return workload::MapScenario(env, threads, 200000);
      },
      []<typename Smr>(const workload::Scenario& scenario) {
        stacktrack::ds::LockFreeSkipList<Smr> skiplist;
        return workload::RunMapScenario<Smr>(skiplist, scenario).ops_per_sec;
      });
}
