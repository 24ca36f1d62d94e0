// ycsb_kv: YCSB-style serving benchmark over a sharded in-memory KV service — the
// ROADMAP "millions of users" proof point, grown out of examples/kv_store.cc.
//
// Service shape (one SMR domain for everything):
//   * N hash-table shards (ds/hashtable.h) hold the primary records; a key's shard
//     is a fibonacci hash of the key, each shard its own bucket array.
//   * A list-based secondary index (ds/list.h) over coarse key ranges
//     (key >> kIndexShiftBits): every update registers its range, scans walk
//     consecutive ranges — the sorted-traversal component reclamation papers need
//     to separate schemes (Brown 1712.01044; Hyaline 1905.07903).
//   * A queue handoff (ds/queue.h): every update enqueues its key onto a changelog
//     and consumes one entry (a bounded in-process changefeed), so each update is a
//     composite multi-structure transaction: shard insert + index insert + enqueue
//     + dequeue, all retiring into the same domain.
//
// Workloads are declarative scenarios on the shared engine (bench/workload/):
// YCSB-A (50/50), YCSB-B (95/5), YCSB-C (read-only), zipfian theta .99, plus a
// "+scan" variant that turns 5% of ops into secondary-index range scans. Latency is
// recorded per operation from monotonic timestamps taken outside the transactions
// (see runner.h) into per-thread log-bucketed histograms; the report carries
// p50/p99/p999 per op kind.
//
// Every scheme in smr/registry.h is runnable by name (--scheme=help lists them).
// Every StackTrack round runs inline on the retiring thread.
//
// Usage: ycsb_kv [--preset=a|b|c|all] [--scheme=NAME|all] [--threads=N] [--ms=N]
//                [--scans] [--json] [--smoke] [--trace-out=FILE]
//   --json            one JSON object per (scheme, preset) run, with latency
//                     percentiles per op kind and the Stats-counter delta
//   --trace-out       write the merged event trace JSON (requires ST_TRACE_ARM)
// Environment: ST_BENCH_MS / ST_BENCH_THREADS / ST_BENCH_SEED / ST_TRACE_ARM via
// workload::EnvConfig (--threads/--ms override; ST_BENCH_THREADS uses its first
// entry — this bench is one serving point, not a thread sweep).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/workload/runner.h"
#include "core/stats_export.h"
#include "ds/hashtable.h"
#include "ds/list.h"
#include "ds/queue.h"
#include "smr/registry.h"

namespace stacktrack::bench {
namespace {

// Coarse secondary-index granularity: one index entry per 64 primary keys keeps the
// index list short enough that updates stay hash-dominated while scans still walk a
// real sorted structure.
constexpr uint32_t kIndexShiftBits = 6;
constexpr uint32_t kShards = 8;  // a power of two: a key's shard is a hash mask

template <typename Smr>
class ShardedKv {
 public:
  using Handle = typename Smr::Handle;

  explicit ShardedKv(std::size_t buckets_per_shard) {
    shards_.reserve(kShards);
    for (uint32_t s = 0; s < kShards; ++s) {
      shards_.push_back(std::make_unique<ds::LockFreeHashTable<Smr>>(buckets_per_shard));
    }
  }

  bool Read(Handle& h, uint64_t key) { return ShardOf(key).Contains(h, key); }

  // Composite update: primary record + secondary-index range registration +
  // changelog handoff (enqueue the key, consume one entry).
  void Update(Handle& h, uint64_t key, uint64_t value) {
    ShardOf(key).Insert(h, key, value);
    index_.Insert(h, IndexKey(key), key);
    changelog_.Enqueue(h, key);
    changelog_.Dequeue(h);
  }

  bool Remove(Handle& h, uint64_t key) {
    // The coarse index entry stays: it describes a key range, not this one key.
    return ShardOf(key).Remove(h, key);
  }

  // Walk `length` consecutive index ranges starting at key's range; returns how
  // many are populated.
  std::size_t Scan(Handle& h, uint64_t key, uint32_t length) {
    std::size_t populated = 0;
    const uint64_t start = IndexKey(key);
    for (uint32_t i = 0; i < length; ++i) {
      if (index_.Contains(h, start + i)) {
        ++populated;
      }
    }
    return populated;
  }

  std::size_t SizeUnsafe() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->SizeUnsafe();
    }
    return total;
  }

  static uint64_t IndexKey(uint64_t key) { return 1 + (key >> kIndexShiftBits); }

 private:
  ds::LockFreeHashTable<Smr>& ShardOf(uint64_t key) {
    return *shards_[(key * 0x9e3779b97f4a7c15ULL >> 40) & (kShards - 1)];
  }

  std::vector<std::unique_ptr<ds::LockFreeHashTable<Smr>>> shards_;
  ds::LockFreeList<Smr> index_;     // secondary index over coarse key ranges
  ds::LockFreeQueue<Smr> changelog_;  // update handoff
};

struct Options {
  std::string preset = "all";  // a | b | c | all
  std::string scheme = "all";
  uint32_t threads = 0;   // 0 = first ST_BENCH_THREADS entry (default 4)
  uint32_t duration_ms = 0;  // 0 = ST_BENCH_MS default
  bool with_scans = false;
  bool json = false;
  bool smoke = false;
  std::string trace_out;  // path for the merged trace JSON (armed runs)
};

template <typename Smr>
workload::RunResult RunKv(typename Smr::Domain& domain,
                          const workload::Scenario& scenario) {
  ShardedKv<Smr> kv(/*buckets_per_shard=*/512);

  // Load phase: uniform over the keyspace (the YCSB shape — uniform load, skewed
  // transactions). Each prefilled key registers its index range too.
  {
    runtime::ThreadScope scope;
    auto& handle = domain.AcquireHandle();
    workload::KeyStreamSpec prefill_spec = scenario.keys;
    prefill_spec.dist = workload::KeyDist::kUniform;
    workload::KeyStream keys(prefill_spec, nullptr, scenario.threads + 1);
    uint64_t inserted = 0;
    while (inserted < scenario.prefill) {
      const uint64_t key = keys.Next();
      kv.Update(handle, key, inserted);
      ++inserted;
    }
  }

  const uint32_t scan_length = scenario.scan_length;
  return workload::RunScenario(
      domain, scenario,
      [&kv, scan_length](auto& handle, workload::OpKind kind, uint64_t key,
                         workload::KeyStream& keys) {
        switch (kind) {
          case workload::OpKind::kInsert:
            kv.Update(handle, key, keys.Dice(~0ull));
            break;
          case workload::OpKind::kRemove:
            kv.Remove(handle, key);
            break;
          case workload::OpKind::kScan:
            kv.Scan(handle, key, scan_length);
            break;
          case workload::OpKind::kRead:
          default:
            kv.Read(handle, key);
            break;
        }
      });
}

void PrintResult(const Options& opt, const char* scheme,
                 const workload::Scenario& scenario,
                 const workload::RunResult& result, const core::Stats& scheme_stats) {
  const uint64_t retires = scheme_stats.retires;
  const uint64_t frees = scheme_stats.frees;
  const uint64_t lag = retires >= frees ? retires - frees : 0;
  using workload::OpKind;
  if (opt.json) {
    std::string latency = "{";
    for (uint32_t k = 0; k < workload::kOpKinds; ++k) {
      if (k != 0) {
        latency += ",";
      }
      latency += "\"";
      latency += workload::OpKindName(static_cast<OpKind>(k));
      latency += "\":";
      latency += workload::LatencyToJson(result.latency[k]);
    }
    latency += "}";
    std::printf(
        "{\"bench\":\"ycsb_kv\",\"scheme\":\"%s\",\"preset\":\"%s\","
        "\"threads\":%u,\"ms\":%u,\"keys\":%llu,\"theta\":%.2f,\"ops\":%llu,"
        "\"ops_per_sec\":%.0f,\"retires\":%llu,\"frees\":%llu,\"final_lag\":%llu,"
        "\"latency_ns\":%s,\"stats\":%s,\"scheme_stats\":%s}\n",
        scheme, scenario.name.c_str(), scenario.threads, scenario.duration_ms,
        static_cast<unsigned long long>(scenario.keys.key_range),
        scenario.keys.zipf_theta, static_cast<unsigned long long>(result.total_ops),
        result.ops_per_sec,
        static_cast<unsigned long long>(retires),
        static_cast<unsigned long long>(frees),
        static_cast<unsigned long long>(lag), latency.c_str(),
        core::StatsToJson(result.stats).c_str(),
        core::StatsToJson(scheme_stats).c_str());
    return;
  }
  // awk-friendly flat line (tools/check_slo.sh parses these).
  std::printf("YCSB scheme=%s preset=%s threads=%u ms=%u ops=%llu ops_per_sec=%.0f "
              "retires=%llu frees=%llu final_lag=%llu",
              scheme, scenario.name.c_str(), scenario.threads, scenario.duration_ms,
              static_cast<unsigned long long>(result.total_ops), result.ops_per_sec,
              static_cast<unsigned long long>(retires),
              static_cast<unsigned long long>(frees),
              static_cast<unsigned long long>(lag));
  for (uint32_t k = 0; k < workload::kOpKinds; ++k) {
    const workload::LatencySummary s = workload::Summarize(result.latency[k]);
    const char* name = workload::OpKindName(static_cast<OpKind>(k));
    std::printf(" %s_ops=%llu %s_p50=%llu %s_p99=%llu %s_p999=%llu", name,
                static_cast<unsigned long long>(s.count), name,
                static_cast<unsigned long long>(s.p50_ns), name,
                static_cast<unsigned long long>(s.p99_ns), name,
                static_cast<unsigned long long>(s.p999_ns));
  }
  std::printf("\n");
}

void MaybeDumpTrace(const Options& opt) {
  if (!opt.trace_out.empty()) {
    const auto records = runtime::trace::CollectMerged();
    const std::string trace = core::TraceToJson(records, runtime::trace::TotalDropped());
    if (std::FILE* f = std::fopen(opt.trace_out.c_str(), "w"); f != nullptr) {
      std::fwrite(trace.data(), 1, trace.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "ycsb_kv: %zu trace records -> %s\n", records.size(),
                   opt.trace_out.c_str());
    }
  }
}

void RunPreset(const Options& opt, const std::vector<std::string>& schemes,
               char letter) {
  workload::Scenario scenario =
      workload::YcsbScenario(letter, workload::kYcsbKeyRange, opt.with_scans);
  const auto env = workload::EnvConfig::Load();
  env.Apply(&scenario);
  // --threads wins; else the first ST_BENCH_THREADS entry if the user set one;
  // else 4 (a serving point, not the sweep list's leading single-thread entry).
  scenario.threads = opt.threads != 0 ? opt.threads
                     : (std::getenv("ST_BENCH_THREADS") != nullptr &&
                        !env.threads.empty())
                         ? env.threads.front()
                         : 4;
  if (opt.duration_ms != 0) {
    scenario.duration_ms = opt.duration_ms;
  }
  if (opt.smoke) {
    scenario.duration_ms = 60;
    scenario.keys.key_range = 2048;
    scenario.prefill = 1024;
  }

  for (const std::string& name : schemes) {
    smr::DispatchScheme(name, [&]<typename Smr>(const smr::SchemeInfo& info) {
      typename Smr::Domain domain;
      // The scheme counters printed as scheme_stats span the load phase too, so
      // their retires - frees is the garbage left at the end of the run;
      // result.stats covers the measured window only.
      const core::Stats before = domain.Snapshot();
      const workload::RunResult result = RunKv<Smr>(domain, scenario);
      PrintResult(opt, info.name, scenario, result,
                  workload::StatsDelta(before, domain.Snapshot()));
      // The trace buffer is cumulative, so a multi-scheme --trace-out ends holding
      // the whole run's merged trace.
      MaybeDumpTrace(opt);
    });
  }
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
    if ((v = value("--preset=")) != nullptr) {
      opt.preset = v;
    } else if ((v = value("--scheme=")) != nullptr) {
      opt.scheme = v;
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
    } else if ((v = value("--trace-out=")) != nullptr) {
      opt.trace_out = v;
    } else if (arg == "--scans") {
      opt.with_scans = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  std::vector<std::string> schemes;
  if (!smr::ResolveSchemeSelection(opt.scheme, smr::AllSchemeNames(), &schemes)) {
    return opt.scheme == "help" ? 0 : 2;
  }
  workload::InstallCrashHandler();
  if (workload::EnvConfig::Load().trace_arm) {
    runtime::trace::Arm(true);
  }
  if (!opt.json) {
    const workload::KeyStreamSpec keys = workload::YcsbScenario('a').keys;
    std::printf("# ycsb_kv: sharded KV (shards=%u) + list index + queue handoff, "
                "zipf theta=%.2f keys=%llu\n",
                kShards, keys.zipf_theta, static_cast<unsigned long long>(keys.key_range));
  }
  if (opt.preset == "all") {
    RunPreset(opt, schemes, 'a');
    RunPreset(opt, schemes, 'b');
    RunPreset(opt, schemes, 'c');
  } else {
    RunPreset(opt, schemes, opt.preset[0]);
  }
  return 0;
}

}  // namespace
}  // namespace stacktrack::bench

int main(int argc, char** argv) { return stacktrack::bench::Main(argc, argv); }
