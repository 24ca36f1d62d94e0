// Figure 1 (left): lock-free list throughput, 5K nodes, 20% mutations, threads 1-16.
// Default columns: Original (no reclamation), Hazard pointers, Epoch, StackTrack,
// DTA; any registry scheme is runnable via --scheme= (see bench/scheme_cli.h).
//
// Runs on the shared workload engine (bench/workload/): the scenario below is the
// whole workload description; there is no per-binary timed loop.
#include "bench/scheme_cli.h"
#include "bench/workload/runner.h"
#include "ds/list.h"

int main(int argc, char** argv) {
  namespace workload = stacktrack::bench::workload;
  return stacktrack::bench::RunThroughputFigure(
      argc, argv, {"original", "hazard", "epoch", "stacktrack", "dta"},
      "Fig 1: List throughput (ops/sec)", "5K nodes, 20% mutations, keys 1..10000",
      [](const workload::EnvConfig& env, uint32_t threads) {
        return workload::MapScenario(env, threads, 10000);
      },
      []<typename Smr>(const workload::Scenario& scenario) {
        stacktrack::ds::LockFreeList<Smr> list;
        return workload::RunMapScenario<Smr>(list, scenario).ops_per_sec;
      });
}
