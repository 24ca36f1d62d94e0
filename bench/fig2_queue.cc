// Figure 2 (left): Michael-Scott queue throughput, 20% mutations (enq/deq), 80% peeks.
// Runs on the shared workload engine; see fig1_list.cc. --scheme= adds columns.
#include "bench/scheme_cli.h"
#include "bench/workload/runner.h"
#include "ds/queue.h"

int main(int argc, char** argv) {
  namespace workload = stacktrack::bench::workload;
  return stacktrack::bench::RunThroughputFigure(
      argc, argv, {"original", "hazard", "epoch", "stacktrack"},
      "Fig 2: Queue throughput (ops/sec)", "20% mutations (10% enq / 10% deq), 1K prefill",
      [](const workload::EnvConfig& env, uint32_t threads) {
        workload::Scenario scenario;
        scenario.mix.insert_percent = 10;  // enqueue
        scenario.mix.remove_percent = 10;  // dequeue; remainder peeks
        scenario.prefill = 1000;
        scenario.threads = threads;
        scenario.measure_latency = false;
        env.Apply(&scenario);
        return scenario;
      },
      []<typename Smr>(const workload::Scenario& scenario) {
        stacktrack::ds::LockFreeQueue<Smr> queue;
        return workload::RunQueueScenario<Smr>(queue, scenario).ops_per_sec;
      });
}
