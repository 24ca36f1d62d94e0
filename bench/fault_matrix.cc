// Fault matrix: list throughput and peak unreclaimed memory per SMR scheme while the
// sweep forces transaction aborts (kSoftTxAbort) and mid-operation thread stalls
// (kThreadStall, visited at every traversal step). The abort axis only affects
// StackTrack (the transactional scheme); the stall axis hurts every scheme, but
// differently: epoch reclamation backs up behind a stalled reader, while hazard
// pointers and StackTrack only pin a bounded set of nodes. Stalls here are bounded
// sleeps of kStallUs, a probability schedule drawn from the scenario seed (each
// thread counts its own visits, so the draw costs no shared write); an indefinitely
// parked thread would wedge the epoch scheme's quiescence wait forever by design.
//
// Each cell prefills its list fault-free, then arms the faults and takes the
// live-object baseline, so the peak excess counts only what the run itself leaves
// unreclaimed.
//
// Env knobs (shared with the other benches): ST_BENCH_THREADS, ST_BENCH_MS,
// ST_BENCH_SEED.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/workload/runner.h"
#include "ds/list.h"
#include "runtime/fault.h"
#include "runtime/pool_alloc.h"
#include "smr/epoch.h"
#include "smr/hazard.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::bench {
namespace {

namespace fault = runtime::fault;

struct Cell {
  double mops = 0.0;
  std::size_t peak_unreclaimed = 0;  // max (allocs - frees) delta over the run
};

// Samples the pool's live-object count from a sidecar thread while the workload
// runs: the peak above the prefilled baseline approximates the worst-case
// unreclaimed backlog the scheme allowed.
class LiveObjectsProbe {
 public:
  LiveObjectsProbe()
      : baseline_(runtime::PoolAllocator::Instance().GetStats().live_objects) {
    sampler_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        const std::size_t live =
            runtime::PoolAllocator::Instance().GetStats().live_objects;
        const std::size_t excess = live > baseline_ ? live - baseline_ : 0;
        if (excess > peak_.load(std::memory_order_relaxed)) {
          peak_.store(excess, std::memory_order_relaxed);
        }
        usleep(200);
      }
    });
  }
  std::size_t Finish() {
    stop_.store(true, std::memory_order_release);
    sampler_.join();
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t baseline_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> peak_{0};
  std::thread sampler_;
};

template <typename Smr>
Cell Point(workload::Scenario scenario, double abort_prob, double stall_prob,
           uint32_t stall_us) {
  typename Smr::Domain domain;
  ds::LockFreeList<Smr> list;
  workload::PrefillMap<Smr>(domain, list, scenario);
  scenario.prefill = 0;
  if (abort_prob > 0.0) {
    fault::ArmProbability(fault::Site::kSoftTxAbort, abort_prob, scenario.keys.seed);
  }
  if (stall_prob > 0.0) {
    fault::ArmProbability(fault::Site::kThreadStall, stall_prob, scenario.keys.seed,
                          stall_us);
  }
  Cell cell;
  {
    LiveObjectsProbe probe;
    const workload::RunResult result =
        workload::RunMapScenario<Smr>(domain, list, scenario);
    cell.mops = result.ops_per_sec / 1e6;
    cell.peak_unreclaimed = probe.Finish();
  }
  fault::DisarmAll();
  return cell;
}

int Main() {
  const auto env = workload::EnvConfig::Load();
  workload::PrintHeader(
      env, "Fault matrix: throughput / peak unreclaimed under injected faults",
      "list, 1K nodes, 20% mutations; cells are Mops/s : peak excess objects");
  constexpr double kAbortProbs[] = {0.0, 0.05, 0.2};
  // Per traversal step; a walk of the ~1,000-node list takes ~500 steps.
  constexpr double kStallProbs[] = {0.0, 1e-5, 1e-4};
  constexpr uint32_t kStallUs = 500;

  for (const uint32_t threads : env.threads) {
    workload::Scenario scenario = workload::MapScenario(env, threads, 2000);
    scenario.inject_preemption = false;  // the stall axis owns kThreadStall here

    std::printf("\n-- %u thread(s) --\n", threads);
    std::printf("%8s %8s | %18s %18s %18s\n", "abort_p", "stall_p", "Hazards", "Epoch",
                "StackTrack");
    for (const double abort_prob : kAbortProbs) {
      for (const double stall_prob : kStallProbs) {
        // The abort axis is meaningless for the non-transactional schemes; skip the
        // redundant rows instead of re-measuring identical configurations.
        const Cell hp = abort_prob == 0.0
                            ? Point<smr::HazardSmr>(scenario, 0.0, stall_prob, kStallUs)
                            : Cell{};
        const Cell ep = abort_prob == 0.0
                            ? Point<smr::EpochSmr>(scenario, 0.0, stall_prob, kStallUs)
                            : Cell{};
        const Cell st =
            Point<smr::StackTrackSmr>(scenario, abort_prob, stall_prob, kStallUs);
        auto print_cell = [](const Cell& c, bool measured) {
          if (measured) {
            std::printf(" %9.2f:%-8zu", c.mops, c.peak_unreclaimed);
          } else {
            std::printf(" %9s:%-8s", "-", "-");
          }
        };
        std::printf("%8.3f %8.1e |", abort_prob, stall_prob);
        print_cell(hp, abort_prob == 0.0);
        print_cell(ep, abort_prob == 0.0);
        print_cell(st, true);
        std::printf("\n");
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace stacktrack::bench

int main() { return stacktrack::bench::Main(); }
