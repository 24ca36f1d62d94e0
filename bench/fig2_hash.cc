// Figure 2 (right): lock-free hash table throughput, 10K nodes, 20% mutations.
// Runs on the shared workload engine; see fig1_list.cc. --scheme= adds columns.
#include "bench/scheme_cli.h"
#include "bench/workload/runner.h"
#include "ds/hashtable.h"

int main(int argc, char** argv) {
  namespace workload = stacktrack::bench::workload;
  return stacktrack::bench::RunThroughputFigure(
      argc, argv, {"original", "hazard", "epoch", "stacktrack"},
      "Fig 2: Hash-table throughput (ops/sec)",
      "10K nodes, 4096 buckets, 20% mutations, keys 1..20000",
      [](const workload::EnvConfig& env, uint32_t threads) {
        return workload::MapScenario(env, threads, 20000);
      },
      []<typename Smr>(const workload::Scenario& scenario) {
        stacktrack::ds::LockFreeHashTable<Smr> table(4096);
        return workload::RunMapScenario<Smr>(table, scenario).ops_per_sec;
      });
}
