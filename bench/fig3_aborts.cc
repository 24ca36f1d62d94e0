// Figure 3: HTM abort profile for the list benchmark under StackTrack — average
// contention aborts and capacity aborts per committed transactional segment, plus the
// raw totals. The capacity cliff past 4 threads (modeled SMT pairs sharing an L1) is
// the headline effect.
#include <cstdio>

#include "bench/workload/runner.h"
#include "ds/list.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::bench {
namespace {

int Main() {
  const auto env = workload::EnvConfig::Load();
  workload::PrintHeader(env, "Fig 3: StackTrack HTM aborts on the list benchmark",
                        "5K nodes, 20% mutations, keys 1..10000");
  std::printf("%8s %16s %16s %16s %16s %14s\n", "threads", "conflict/seg", "capacity/seg",
              "conflict_total", "capacity_total", "other_total");
  for (const uint32_t threads : env.threads) {
    ds::LockFreeList<smr::StackTrackSmr> list;
    const core::Stats stats = workload::RunMapScenario<smr::StackTrackSmr>(
                                  list, workload::MapScenario(env, threads, 10000))
                                  .stats;
    const double segments =
        static_cast<double>(stats.segments_committed + stats.segments_slow);
    const double per_seg = segments > 0 ? 1.0 / segments : 0.0;
    std::printf("%8u %16.4f %16.4f %16llu %16llu %14llu\n", threads,
                static_cast<double>(stats.aborts_conflict) * per_seg,
                static_cast<double>(stats.aborts_capacity) * per_seg,
                static_cast<unsigned long long>(stats.aborts_conflict),
                static_cast<unsigned long long>(stats.aborts_capacity),
                static_cast<unsigned long long>(stats.aborts_other));
  }
  return 0;
}

}  // namespace
}  // namespace stacktrack::bench

int main() { return stacktrack::bench::Main(); }
