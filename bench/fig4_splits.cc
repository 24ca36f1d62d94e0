// Figure 4: split profile for the list benchmark under StackTrack — average number of
// segments per operation and average segment length (basic blocks per committed
// segment). Higher thread counts mean more aborts, so the predictor converges to
// shorter, more numerous segments.
#include <cstdio>

#include "bench/workload/runner.h"
#include "ds/list.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::bench {
namespace {

int Main() {
  const auto env = workload::EnvConfig::Load();
  workload::PrintHeader(env, "Fig 4: StackTrack split profile on the list benchmark",
                        "5K nodes, 20% mutations, keys 1..10000");
  std::printf("%8s %16s %18s %16s %16s\n", "threads", "splits/op", "avg split length",
              "limit increases", "limit decreases");
  for (const uint32_t threads : env.threads) {
    ds::LockFreeList<smr::StackTrackSmr> list;
    const core::Stats stats = workload::RunMapScenario<smr::StackTrackSmr>(
                                  list, workload::MapScenario(env, threads, 10000))
                                  .stats;
    std::printf("%8u %16.2f %18.2f %16llu %16llu\n", threads, stats.AvgSplitsPerOp(),
                stats.AvgSplitLength(),
                static_cast<unsigned long long>(stats.predictor_increases),
                static_cast<unsigned long long>(stats.predictor_decreases));
  }
  return 0;
}

}  // namespace
}  // namespace stacktrack::bench

int main() { return stacktrack::bench::Main(); }
