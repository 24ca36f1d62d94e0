// Bounded-garbage acceptance benchmark: reclamation lag ceilings under thread
// stalls and thread death, per scheme (the robustness contract DESIGN.md §5c and the
// README scheme table promise, gated in CI by tools/check_reclaim_lag.sh).
//
// N-1 workers plus one victim churn a lock-free list. Mid-run the fault injector
// stalls the victim (kThreadStall gate, released before the end) or kills it (the
// gate is held through the whole measurement — to every scanner that is a dead
// thread: mid-operation, roots exposed, never advancing, never cleaning up). A
// sampler thread records the scheme's reclamation lag
// (retires - frees, core/stats_export.h ReclamationLag) throughout; the JSON report
// carries the peak and final lag for the gate.
//
// Scheme-by-scheme expectations, measured here:
//  * stacktrack — tight ceiling in BOTH scenarios: every round conservatively keeps
//    what the stalled/dead victim may reference (bounded inspection) and frees the
//    rest, and back-pressure bounds each thread's free set, so peak garbage stays
//    within threads x (free_highwater_mult + 1) x max_free.
//  * hyaline — never waits and never scans; lag grows only with retires inserted
//    during a stall window and drains on release. Death is its documented gap: a
//    victim killed INSIDE an operation would leak every later batch (plain
//    Hyaline-1 is not death-robust), so the death scenario kills hyaline's victim
//    at an operation boundary — death outside a critical section delays nothing.
//
// Usage: robustness_lag [--scheme=S] [--scenario=stall|death|none] [--threads=N]
//                       [--ms=N] [--smoke] [--json]
//   --scheme    any smr/registry.h name, a comma list, "all" (the two contract
//               schemes above), or "help"; default honors ST_SCHEME
//   --smoke     short windows for CI (also honors ST_BENCH_MS)
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload/scenario.h"
#include "core/stats_export.h"
#include "ds/list.h"
#include "runtime/barrier.h"
#include "runtime/fault.h"
#include "runtime/rand.h"
#include "runtime/thread_registry.h"
#include "runtime/trace.h"
#include "smr/registry.h"

namespace stacktrack::bench {
namespace {

namespace fault = runtime::fault;

struct Options {
  std::string scheme = "all";    // registry names; see usage
  std::string scenario = "stall";  // stall | death | none
  uint32_t threads = 4;
  uint32_t duration_ms = 400;
  uint32_t stall_ms = 100;  // how long the victim stays parked / when it dies
  bool smoke = false;
  bool json = false;
};

struct LagReport {
  uint64_t max_lag = 0;     // max(sampler peak, guaranteed mid-fault sample)
  uint64_t final_lag = 0;   // after the run and a drain attempt
  uint64_t retires = 0;
  uint64_t frees = 0;
  uint64_t ops = 0;
};

// Samples domain.Snapshot() on a sidecar thread; ReclamationLag over the samples
// gives the ceiling the scheme allowed during the faulted window.
template <typename Domain>
class LagProbe {
 public:
  explicit LagProbe(Domain& domain) : domain_(domain) {
    sampler_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        Sample();
        usleep(500);
      }
      Sample();
    });
  }
  uint64_t Finish() {
    stop_.store(true, std::memory_order_release);
    sampler_.join();
    return max_lag_;
  }

 private:
  void Sample() {
    core::StatsSnapshot snap;
    snap.ns = runtime::trace::NowNanos();
    snap.totals = domain_.Snapshot();
    const uint64_t lag = core::ReclamationLag(snap);
    if (lag > max_lag_) {
      max_lag_ = lag;
    }
  }

  Domain& domain_;
  std::atomic<bool> stop_{false};
  uint64_t max_lag_ = 0;
  std::thread sampler_;
};

// One faulted run. The victim participates in the workload until the scenario
// removes it: `stall` parks it at a traversal preempt point for stall_ms and then
// releases it (the rest of the run shows the backlog draining); `death` removes it
// for the remainder of the run — mid-operation with roots exposed for StackTrack
// schemes (the gate is held until after the measurement window, which is
// indistinguishable from death to every scanner), at an operation boundary for
// hyaline (see the header comment for why).
template <typename Smr>
LagReport RunScenario(const Options& opt, typename Smr::Domain& domain,
                      bool victim_dies_mid_op) {
  ds::LockFreeList<Smr> list;
  const uint32_t workers = opt.threads > 1 ? opt.threads - 1 : 1;
  std::atomic<bool> stop{false};
  std::atomic<bool> die_at_boundary{false};
  std::atomic<uint32_t> victim_tid{runtime::kInvalidThreadId};
  std::atomic<uint64_t> total_ops{0};
  runtime::SpinBarrier barrier(workers + 2);

  LagReport report;
  {
    LagProbe<typename Smr::Domain> probe(domain);
    std::vector<std::thread> threads;

    auto churn = [&](auto& handle, runtime::Xorshift128& rng) {
      const uint64_t key = 1 + rng.NextBounded(512);
      const uint64_t dice = rng.NextBounded(100);
      if (dice < 30) {
        list.Insert(handle, key, key);
      } else if (dice < 60) {
        list.Remove(handle, key);
      } else {
        list.Contains(handle, key);
      }
    };

    // Victim thread. Boundary death (hyaline) checks the flag between operations
    // and abandons the workload without inserting its pending batch; gate-based
    // faults (stall, mid-op death) park it inside the next traversal.
    threads.emplace_back([&] {
      runtime::ThreadScope scope;
      auto& handle = domain.AcquireHandle();
      runtime::Xorshift128 rng(0x71c71c71ULL);
      victim_tid.store(scope.tid(), std::memory_order_release);
      barrier.Wait();
      uint64_t ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (die_at_boundary.load(std::memory_order_acquire)) {
          return;  // dead: no handoff, no cleanup, pending retirements stranded
        }
        churn(handle, rng);
        ++ops;
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });

    for (uint32_t t = 0; t < workers; ++t) {
      threads.emplace_back([&, t] {
        runtime::ThreadScope scope;
        auto& handle = domain.AcquireHandle();
        runtime::Xorshift128 rng(0x5eedULL ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
        barrier.Wait();
        uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          churn(handle, rng);
          ++ops;
        }
        total_ops.fetch_add(ops, std::memory_order_relaxed);
      });
    }

    barrier.Wait();
    usleep(1000 * (opt.duration_ms / 4));  // warmup before the fault lands
    const uint32_t victim = victim_tid.load(std::memory_order_acquire);
    // The sidecar sampler can be starved on a 1-core host; this samples the lag at
    // the moments that matter (deep in the fault window) from the orchestrator.
    auto sample_lag = [&domain, &report] {
      core::StatsSnapshot s;
      s.ns = runtime::trace::NowNanos();
      s.totals = domain.Snapshot();
      const uint64_t lag = core::ReclamationLag(s);
      if (lag > report.max_lag) {
        report.max_lag = lag;
      }
    };
    bool gate_held = false;
    if (opt.scenario == "stall" || (opt.scenario == "death" && victim_dies_mid_op)) {
      fault::ArmGate(fault::Site::kThreadStall, victim);
      gate_held = true;
      for (uint32_t waited = 0; waited < 2000 && !fault::IsStalled(victim);
           ++waited) {
        usleep(100);
      }
      if (opt.scenario == "stall") {
        // Hold the victim parked mid-traversal for the stall window, then release;
        // the remaining run time shows the backlog draining. (On a 1-core host the
        // absolute peak is modest — the parked victim frees up CPU for nothing but
        // the orchestrator — but frees flatline for the whole window; the robust
        // acceptance signal is final_lag draining back to ~0 afterwards.)
        usleep(1000 * opt.stall_ms);
        sample_lag();
        fault::ReleaseGate(fault::Site::kThreadStall);
        gate_held = false;
      }
      // death: the gate stays held through the whole measurement — the victim
      // never makes another step, never reaches OpEnd, never runs cleanup.
    } else if (opt.scenario == "death") {
      die_at_boundary.store(true, std::memory_order_release);
    }
    usleep(1000 * (opt.duration_ms - opt.duration_ms / 4));
    sample_lag();
    stop.store(true, std::memory_order_release);
    if (gate_held) {
      fault::ReleaseGate(fault::Site::kThreadStall);  // only so join() can succeed
    }
    for (std::thread& t : threads) {
      t.join();
    }
    fault::DisarmAll();
    report.max_lag = std::max(report.max_lag, probe.Finish());
  }

  core::StatsSnapshot snap;
  snap.ns = runtime::trace::NowNanos();
  snap.totals = domain.Snapshot();
  report.final_lag = core::ReclamationLag(snap);
  report.retires = snap.totals.retires;
  report.frees = snap.totals.frees;
  report.ops = total_ops.load(std::memory_order_relaxed);
  return report;
}

void PrintReport(const Options& opt, const char* scheme, const LagReport& r) {
  if (opt.json) {
    std::printf(
        "{\"scheme\":\"%s\",\"scenario\":\"%s\",\"threads\":%u,\"ms\":%u,"
        "\"ops\":%llu,\"retires\":%llu,\"frees\":%llu,\"max_lag\":%llu,"
        "\"final_lag\":%llu}\n",
        scheme, opt.scenario.c_str(), opt.threads, opt.duration_ms,
        static_cast<unsigned long long>(r.ops),
        static_cast<unsigned long long>(r.retires),
        static_cast<unsigned long long>(r.frees),
        static_cast<unsigned long long>(r.max_lag),
        static_cast<unsigned long long>(r.final_lag));
  } else {
    std::printf("%-20s %-6s ops=%-10llu retires=%-9llu frees=%-9llu max_lag=%-7llu "
                "final_lag=%llu\n",
                scheme, opt.scenario.c_str(),
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.retires),
                static_cast<unsigned long long>(r.frees),
                static_cast<unsigned long long>(r.max_lag),
                static_cast<unsigned long long>(r.final_lag));
  }
}

// Any registered scheme runs through the generic scenario; hyaline's victim dies
// at an operation boundary (see the header comment), everyone else's mid-op.
void RunRegistryScheme(const Options& opt, const std::string& name) {
  smr::DispatchScheme(name, [&]<typename Smr>(const smr::SchemeInfo& info) {
    typename Smr::Domain domain;
    const LagReport report = RunScenario<Smr>(
        opt, domain, /*victim_dies_mid_op=*/!std::is_same_v<Smr, smr::HyalineSmr>);
    PrintReport(opt, info.name, report);
  });
}

int Main(int argc, char** argv) {
  Options opt;
  opt.scheme = smr::SchemeEnvDefault("all");
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    auto value = [&](const char* prefix) -> const char* {
      return arg.compare(0, std::strlen(prefix), prefix) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--scheme=")) != nullptr) {
      opt.scheme = v;
    } else if ((v = value("--scenario=")) != nullptr) {
      opt.scenario = v;
    } else if ((v = value("--threads=")) != nullptr) {
      if (!workload::ParseThreadCount(v, &opt.threads)) {
        std::fprintf(stderr, "%s: expected 1..%u threads\n", argv[i], runtime::kMaxThreads);
        return 2;
      }
    } else if ((v = value("--ms=")) != nullptr) {
      if (!workload::ParseDurationMs(v, &opt.duration_ms)) {
        std::fprintf(stderr, "%s: expected a window in ms >= 1\n", argv[i]);
        return 2;
      }
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.scenario != "stall" && opt.scenario != "death" && opt.scenario != "none") {
    std::fprintf(stderr, "--scenario=%s: expected stall|death|none\n", opt.scenario.c_str());
    return 2;
  }
  if (opt.smoke) {
    opt.duration_ms = workload::EnvConfig::Load(200).duration_ms;
    opt.stall_ms = opt.duration_ms / 4;
  }
  // "all" is the two schemes whose robustness contracts the header documents (and
  // check_reclaim_lag.sh gates). Any other registered scheme is runnable by name.
  const std::vector<std::string> contract_schemes = {"stacktrack", "hyaline"};
  std::vector<std::string> schemes;
  if (!smr::ResolveSchemeSelection(opt.scheme, contract_schemes, &schemes)) {
    return opt.scheme == "help" ? 0 : 2;
  }
  workload::InstallCrashHandler();
  if (!opt.json) {
    std::printf("# robustness_lag: scenario=%s threads=%u ms=%u stall_ms=%u\n",
                opt.scenario.c_str(), opt.threads, opt.duration_ms, opt.stall_ms);
  }
  for (const std::string& name : schemes) {
    RunRegistryScheme(opt, name);
  }
  return 0;
}

}  // namespace
}  // namespace stacktrack::bench

int main(int argc, char** argv) { return stacktrack::bench::Main(argc, argv); }
