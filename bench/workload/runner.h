// Workload engine runner: executes one declarative Scenario against any SMR domain
// and structure, recording per-operation latency histograms.
//
// This is the one timed loop in the bench layer. Each worker thread owns a
// deterministic KeyStream (generator.h) and one LatencyHistogram per op kind
// (histogram.h, single-writer); the runner merges the per-thread histograms after
// join and reports exact p50/p99/p999 per op kind alongside the classic
// ops/sec + Stats-delta numbers the figure binaries have always printed. The Stats
// delta comes from the domain's Snapshot(), the counter surface every scheme has
// (smr/smr.h).
//
// Latency timestamps are CLOCK_MONOTONIC reads taken strictly OUTSIDE the
// operations: an operation's transactional segments live inside the structure call,
// and on real HTM a clock_gettime inside a live segment touches the vvar page — a
// guaranteed abort (the same rule that keeps armed trace emits out of
// transactions; see runtime/trace.h and DESIGN.md §6). Bracketing the whole call is
// both safe and the honest SLO number: it charges aborts, retries, and slow-path
// entries to the operation that suffered them.
//
// Preemption injection: once a scenario's thread count exceeds the machine model's
// hardware contexts, simulated context switches are armed for the run (the
// software-multiplexing regime that breaks epoch-based reclamation in the paper's
// Figs. 1-2).
#ifndef STACKTRACK_BENCH_WORKLOAD_RUNNER_H_
#define STACKTRACK_BENCH_WORKLOAD_RUNNER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload/generator.h"
#include "bench/workload/histogram.h"
#include "bench/workload/scenario.h"
#include "core/stats.h"
#include "runtime/barrier.h"
#include "runtime/machine_model.h"
#include "runtime/preempt.h"
#include "runtime/thread_registry.h"
#include "runtime/trace.h"

namespace stacktrack::bench::workload {

struct RunResult {
  uint64_t total_ops = 0;
  double ops_per_sec = 0.0;
  core::Stats stats;  // domain.Snapshot() delta over the measured window
  uint64_t ops_by_kind[kOpKinds] = {};
  LatencyHistogram latency[kOpKinds];  // merged across threads; empty when
                                       // measure_latency was off
};

// Compact percentile view of one histogram (runner.cc); used by result printers.
struct LatencySummary {
  uint64_t count = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t max_ns = 0;
  double mean_ns = 0.0;
};
LatencySummary Summarize(const LatencyHistogram& histogram);

// JSON fragment {"count":..,"p50_ns":..,"p99_ns":..,"p999_ns":..,"max_ns":..,
// "mean_ns":..} for one op kind's histogram.
std::string LatencyToJson(const LatencyHistogram& histogram);

// Stats are cumulative counters; the per-window view is the member-wise difference.
core::Stats StatsDelta(const core::Stats& before, const core::Stats& after);

// Draw the next op kind from the scenario mix using the stream's dice (determinism:
// kind and key come from the same per-thread stream).
inline OpKind PickOp(const OpMix& mix, KeyStream& keys) {
  const uint64_t dice = keys.Dice(100);
  if (dice < mix.insert_percent) {
    return OpKind::kInsert;
  }
  if (dice < mix.insert_percent + mix.remove_percent) {
    return OpKind::kRemove;
  }
  if (dice < mix.insert_percent + mix.remove_percent + mix.scan_percent) {
    return OpKind::kScan;
  }
  return OpKind::kRead;
}

// Core timed driver. `op(handle, kind, key, keys)` performs one operation of `kind`
// on behalf of the calling worker; the runner owns thread lifecycle, preemption
// arming, timing, and histogram recording.
template <typename Domain, typename OpFn>
RunResult RunScenario(Domain& domain, const Scenario& scenario, OpFn op) {
  const auto& model = runtime::MachineModel::Instance();
  std::atomic<bool> stop{false};
  runtime::SpinBarrier barrier(scenario.threads + 1);

  struct PerThread {
    uint64_t ops_by_kind[kOpKinds] = {};
    LatencyHistogram latency[kOpKinds];
  };
  std::vector<PerThread> per_thread(scenario.threads);
  std::vector<std::thread> workers;
  workers.reserve(scenario.threads);

  const ZipfCdf* cdf = nullptr;
  ZipfCdf zipf_cdf(scenario.keys.dist == KeyDist::kZipfian ? scenario.keys.key_range : 1,
                   scenario.keys.zipf_theta);
  if (scenario.keys.dist == KeyDist::kZipfian) {
    cdf = &zipf_cdf;
  }

  const core::Stats stats_before = domain.Snapshot();

  const bool oversubscribed = scenario.threads > model.config().hardware_contexts();
  if (scenario.inject_preemption && oversubscribed) {
    runtime::ArmPreemption(model.config().preempt_prob, model.config().preempt_delay_us);
  }

  for (uint32_t t = 0; t < scenario.threads; ++t) {
    workers.emplace_back([&, t] {
      runtime::ThreadScope thread_scope;
      auto& handle = domain.AcquireHandle();
      KeyStream keys(scenario.keys, cdf, t);
      PerThread& mine = per_thread[t];
      barrier.Wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const OpKind kind = PickOp(scenario.mix, keys);
        const uint64_t key = keys.Next();
        const uint32_t k = static_cast<uint32_t>(kind);
        if (scenario.measure_latency) {
          const uint64_t begin_ns = runtime::trace::NowNanos();
          op(handle, kind, key, keys);
          mine.latency[k].Record(runtime::trace::NowNanos() - begin_ns);
        } else {
          op(handle, kind, key, keys);
        }
        ++mine.ops_by_kind[k];
      }
    });
  }

  barrier.Wait();
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(scenario.duration_ms));
  stop.store(true, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
  const auto end = std::chrono::steady_clock::now();
  runtime::DisarmPreemption();

  RunResult result;
  for (const PerThread& mine : per_thread) {
    for (uint32_t k = 0; k < kOpKinds; ++k) {
      result.ops_by_kind[k] += mine.ops_by_kind[k];
      result.total_ops += mine.ops_by_kind[k];
      result.latency[k].Merge(mine.latency[k]);
    }
  }
  const double seconds = std::chrono::duration<double>(end - start).count();
  result.ops_per_sec =
      seconds > 0 ? static_cast<double>(result.total_ops) / seconds : 0.0;
  result.stats = StatsDelta(stats_before, domain.Snapshot());
  return result;
}

// ---- Structure adapters ----------------------------------------------------------

// Uniform prefill to `scenario.prefill` distinct keys, regardless of the run
// distribution: a zipfian RUN over a uniformly populated structure is the YCSB
// shape (load phase uniform, transaction phase skewed).
template <typename Smr, typename Map>
void PrefillMap(typename Smr::Domain& domain, Map& map, const Scenario& scenario) {
  runtime::ThreadScope thread_scope;
  auto& handle = domain.AcquireHandle();
  KeyStreamSpec prefill_spec = scenario.keys;
  prefill_spec.dist = KeyDist::kUniform;
  KeyStream keys(prefill_spec, nullptr, scenario.threads + 1);
  uint64_t inserted = 0;
  while (inserted < scenario.prefill) {
    if (map.Insert(handle, keys.Next(), inserted)) {
      ++inserted;
    }
  }
}

// Mixed map workload (read -> Contains, insert/remove as named, scan -> a run of
// scan_length consecutive-key Contains probes starting at the drawn key).
template <typename Smr, typename Map>
RunResult RunMapScenario(typename Smr::Domain& domain, Map& map,
                         const Scenario& scenario) {
  PrefillMap<Smr>(domain, map, scenario);
  const uint64_t range = scenario.keys.key_range;
  const uint32_t scan_length = scenario.scan_length;
  return RunScenario(
      domain, scenario,
      [&map, range, scan_length](auto& handle, OpKind kind, uint64_t key,
                                 KeyStream& keys) {
        switch (kind) {
          case OpKind::kInsert:
            map.Insert(handle, key, keys.Dice(~0ull));
            break;
          case OpKind::kRemove:
            map.Remove(handle, key);
            break;
          case OpKind::kScan:
            for (uint32_t i = 0; i < scan_length; ++i) {
              map.Contains(handle, 1 + (key - 1 + i) % range);
            }
            break;
          case OpKind::kRead:
          default:
            map.Contains(handle, key);
            break;
        }
      });
}

template <typename Smr, typename Map>
RunResult RunMapScenario(Map& map, const Scenario& scenario) {
  typename Smr::Domain domain;
  return RunMapScenario<Smr>(domain, map, scenario);
}

// Queue workload: insert -> Enqueue, remove -> Dequeue, read/scan -> Peek.
template <typename Smr, typename Queue>
RunResult RunQueueScenario(Queue& queue, const Scenario& scenario) {
  typename Smr::Domain domain;
  {
    runtime::ThreadScope thread_scope;
    auto& handle = domain.AcquireHandle();
    for (uint64_t i = 0; i < scenario.prefill; ++i) {
      queue.Enqueue(handle, i + 1);
    }
  }
  return RunScenario(domain, scenario,
                     [&queue](auto& handle, OpKind kind, uint64_t key, KeyStream&) {
                       switch (kind) {
                         case OpKind::kInsert:
                           queue.Enqueue(handle, key);
                           break;
                         case OpKind::kRemove:
                           queue.Dequeue(handle);
                           break;
                         case OpKind::kRead:
                         case OpKind::kScan:
                         default:
                           queue.Peek(handle);
                           break;
                       }
                     });
}

}  // namespace stacktrack::bench::workload

#endif  // STACKTRACK_BENCH_WORKLOAD_RUNNER_H_
