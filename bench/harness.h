// Legacy benchmark harness for the ad-hoc per-figure drivers (fig3/fig4/fig5,
// scan_behavior, ablation_scan, fault_matrix).
//
// The scenario-driven binaries (fig1_list, fig1_skiplist, fig2_hash, fig2_queue,
// ycsb_kv) run on the workload engine instead (bench/workload/: declarative op-mix
// scenarios, deterministic per-thread key streams, per-op latency histograms); this
// header keeps only the simple timed driver the remaining figure binaries still
// need, and forwards all environment parsing to workload::EnvConfig so the knobs
// are parsed in exactly one place.
//
// Reproduces the paper's methodology: N threads run a mixed workload against one data
// structure for a fixed wall-clock window; total completed operations are reported.
// The machine model (runtime/machine_model.h) provides the 4-core/8-context geometry;
// once the thread count exceeds the hardware contexts the harness injects preemption
// (simulated context switches), which is what breaks epoch-based reclamation in
// Figs. 1-2.
//
// Environment knobs (all optional, parsed by workload::EnvConfig):
//   ST_BENCH_MS       per-point measure window in ms (default 150)
//   ST_BENCH_THREADS  comma list of thread counts (default "1,2,3,4,6,8,12,16")
//   ST_BENCH_SEED     scenario base seed (decimal or 0x hex)
//   ST_TRACE_ARM      if set, arms event tracing for the whole run (armed-overhead
//                     measurements; records go to the per-thread rings as usual)
#ifndef STACKTRACK_BENCH_HARNESS_H_
#define STACKTRACK_BENCH_HARNESS_H_

#include <execinfo.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload/scenario.h"
#include "core/stats.h"
#include "runtime/barrier.h"
#include "runtime/trace.h"
#include "runtime/machine_model.h"
#include "runtime/preempt.h"
#include "runtime/rand.h"
#include "runtime/thread_registry.h"

namespace stacktrack::bench {

struct WorkloadConfig {
  uint32_t threads = 1;
  uint32_t duration_ms = 150;
  uint32_t mutation_percent = 20;  // split evenly between insert and remove
  uint64_t key_range = 10000;
  uint64_t prefill = 5000;
  bool inject_preemption = true;
  uint64_t seed = 0x5eedULL;
};

struct WorkloadResult {
  uint64_t total_ops = 0;
  double ops_per_sec = 0.0;
  core::Stats stats;  // StatsRegistry delta over the measured window (StackTrack runs)
};

inline void CrashHandler(int sig) {
  void* frames[32];
  backtrace_symbols_fd(frames, backtrace(frames, 32), 2);
  _exit(128 + sig);
}

inline void InstallCrashHandler() {
  signal(SIGSEGV, CrashHandler);
  signal(SIGBUS, CrashHandler);
}

// Environment accessors, now thin forwarders over the workload engine's single
// ST_BENCH_* parser (workload::EnvConfig).
inline uint32_t EnvMs(uint32_t fallback = 150) {
  return workload::EnvConfig::Load(fallback).duration_ms;
}

inline std::vector<uint32_t> EnvThreads() {
  return workload::EnvConfig::Load().threads;
}

inline uint64_t EnvSeed(uint64_t fallback = 0x5eedULL) {
  return workload::EnvConfig::Load(150, {1}, fallback).seed;
}

// Generic timed driver: spawns cfg.threads workers, each registered and holding a
// scheme handle, runs `op(handle, rng)` until the window closes.
template <typename Domain, typename PerOp>
WorkloadResult RunTimed(Domain& domain, const WorkloadConfig& cfg, PerOp op) {
  const auto& model = runtime::MachineModel::Instance();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ops{0};
  runtime::SpinBarrier barrier(cfg.threads + 1);
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);

  const core::Stats stats_before = core::StatsRegistry::Instance().Sum();

  // Software-multiplexing regime: arm mid-operation preemption (simulated timer
  // interrupts) once the thread count exceeds the modeled hardware contexts.
  const bool oversubscribed = cfg.threads > model.config().hardware_contexts();
  if (cfg.inject_preemption && oversubscribed) {
    runtime::ArmPreemption(model.config().preempt_prob, model.config().preempt_delay_us);
  }

  for (uint32_t t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      runtime::ThreadScope scope;
      auto& handle = domain.AcquireHandle();
      runtime::Xorshift128 rng(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
      barrier.Wait();
      uint64_t ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        op(handle, rng);
        ++ops;
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }

  barrier.Wait();
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.duration_ms));
  stop.store(true, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
  const auto end = std::chrono::steady_clock::now();
  runtime::DisarmPreemption();

  WorkloadResult result;
  result.total_ops = total_ops.load(std::memory_order_relaxed);
  const double seconds = std::chrono::duration<double>(end - start).count();
  result.ops_per_sec = seconds > 0 ? static_cast<double>(result.total_ops) / seconds : 0.0;
  result.stats = core::StatsRegistry::Instance().Sum();
  result.stats -= stats_before;  // stats only grow; the delta isolates this window
  return result;
}

// Mixed map workload (Contains / Insert / Remove) against any key-value structure,
// using a caller-provided domain (Fig. 5 and the scan bench pass custom StConfigs).
template <typename Smr, typename Map>
WorkloadResult RunMapWorkloadIn(typename Smr::Domain& domain, Map& map,
                                const WorkloadConfig& cfg) {
  {
    runtime::ThreadScope scope;
    auto& handle = domain.AcquireHandle();
    runtime::Xorshift128 rng(cfg.seed);
    uint64_t inserted = 0;
    while (inserted < cfg.prefill) {
      if (map.Insert(handle, 1 + rng.NextBounded(cfg.key_range), inserted)) {
        ++inserted;
      }
    }
  }
  const uint32_t half_mutations = cfg.mutation_percent / 2;
  return RunTimed(domain, cfg, [&map, &cfg, half_mutations](auto& handle, auto& rng) {
    const uint64_t key = 1 + rng.NextBounded(cfg.key_range);
    const uint64_t dice = rng.NextBounded(100);
    if (dice < half_mutations) {
      map.Insert(handle, key, key);
    } else if (dice < 2 * half_mutations) {
      map.Remove(handle, key);
    } else {
      map.Contains(handle, key);
    }
  });
}

template <typename Smr, typename Map>
WorkloadResult RunMapWorkload(Map& map, const WorkloadConfig& cfg) {
  typename Smr::Domain domain;
  return RunMapWorkloadIn<Smr>(domain, map, cfg);
}

inline void PrintHeader(const char* title, const char* workload) {
  if (std::getenv("ST_TRACE_ARM") != nullptr) {
    runtime::trace::Arm(true);
    std::printf("# event tracing: ARMED\n");
  }
  std::printf("# %s\n# workload: %s\n", title, workload);
  std::printf("# machine model: 4 cores x 2 SMT (software HTM substrate)\n");
}

}  // namespace stacktrack::bench

#endif  // STACKTRACK_BENCH_HARNESS_H_
