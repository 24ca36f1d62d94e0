// trace_dump: runs a short armed StackTrack list workload and emits one merged JSON
// document on stdout — run metadata, end-of-run counters, the periodic stats timeline
// (reclamation lag over time; see EXPERIMENTS.md), the split-predictor table, and the
// time-ordered event trace from every thread's ring.
//
//   ./build/bench/trace_dump            emit the document
//   ./build/bench/trace_dump --check    emit nothing; validate the document instead
//                                       (parses it back with minijson and checks the
//                                       cross-section invariants; exit 0/1)
//
// The --check mode is registered as the `trace`-labeled ctest `trace_dump_json`, so
// "the exporter produces JSON a consumer can parse" is enforced, not assumed.
// Knobs: ST_BENCH_MS (window, default 100), ST_BENCH_THREADS first entry (default 4),
// ST_BENCH_SEED.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/workload/runner.h"
#include "stacktrack.h"

namespace {

using stacktrack::bench::workload::EnvConfig;
using stacktrack::core::StatsTimeline;
using stacktrack::core::minijson::Parse;
using stacktrack::core::minijson::Value;

namespace trace = stacktrack::runtime::trace;

struct RunOutput {
  std::string json;
  stacktrack::core::Stats stats;
};

RunOutput RunAndExport(const EnvConfig& env) {
  const auto scenario =
      stacktrack::bench::workload::MapScenario(env, env.threads.front(), 2048);

  trace::ResetAll();
  trace::Arm(true);
  StatsTimeline timeline;
  timeline.StartPeriodic(/*period_ms=*/5);

  stacktrack::ds::LockFreeList<stacktrack::smr::StackTrackSmr> list;
  stacktrack::smr::StackTrackSmr::Domain domain;
  const auto result = stacktrack::bench::workload::RunMapScenario<
      stacktrack::smr::StackTrackSmr>(domain, list, scenario);

  timeline.StopPeriodic();
  trace::Arm(false);
  const auto records = trace::CollectMerged();

  std::string json = "{\"meta\":{\"bench\":\"trace_dump\",\"threads\":";
  json += std::to_string(scenario.threads);
  json += ",\"duration_ms\":" + std::to_string(scenario.duration_ms);
  json += ",\"total_ops\":" + std::to_string(result.total_ops);
  json += "},\n\"stats\":" + stacktrack::core::StatsToJson(result.stats);
  json += ",\n\"timeline\":" + stacktrack::core::TimelineToJson(timeline.samples());
  json += ",\n\"predictor\":" + stacktrack::core::PredictorTableToJson();
  json += ",\n\"trace\":" + stacktrack::core::TraceToJson(records, trace::TotalDropped());
  json += "}\n";
  return RunOutput{std::move(json), result.stats};
}

bool Fail(const char* what) {
  std::fprintf(stderr, "trace_dump --check: FAILED: %s\n", what);
  return false;
}

// Parse the emitted document back and verify the invariants that tie the sections to
// each other and to the Stats contract.
bool Check(const RunOutput& run) {
  Value root;
  if (!Parse(run.json, &root)) {
    return Fail("document does not parse as JSON");
  }
  const Value* stats = root.Find("stats");
  if (stats == nullptr || stats->kind != Value::Kind::kObject) {
    return Fail("missing stats object");
  }
  const Value* retires = stats->Find("retires");
  const Value* frees = stats->Find("frees");
  if (retires == nullptr || frees == nullptr) {
    return Fail("stats lacks retires/frees");
  }
  if (frees->AsU64() > retires->AsU64()) {
    return Fail("frees > retires: the reclamation identity is broken");
  }
  if (retires->AsU64() != run.stats.retires || frees->AsU64() != run.stats.frees) {
    return Fail("stats section does not round-trip the measured counters");
  }

  const Value* timeline = root.Find("timeline");
  const Value* samples = timeline != nullptr ? timeline->Find("samples") : nullptr;
  if (samples == nullptr || samples->kind != Value::Kind::kArray) {
    return Fail("missing timeline samples");
  }
  uint64_t prev_ns = 0;
  for (const Value& sample : samples->array) {
    const Value* ns = sample.Find("ns");
    const Value* lag = sample.Find("lag");
    if (ns == nullptr || lag == nullptr) {
      return Fail("timeline sample lacks ns/lag");
    }
    if (ns->AsU64() < prev_ns) {
      return Fail("timeline is not time-ordered");
    }
    prev_ns = ns->AsU64();
  }

  const Value* tr = root.Find("trace");
  const Value* records = tr != nullptr ? tr->Find("records") : nullptr;
  if (records == nullptr || records->kind != Value::Kind::kArray) {
    return Fail("missing trace records");
  }
  prev_ns = 0;
  for (const Value& record : records->array) {
    const Value* event = record.Find("event");
    if (event == nullptr || event->kind != Value::Kind::kString) {
      return Fail("trace record lacks an event name");
    }
    bool known = false;
    for (uint16_t e = 0; e < static_cast<uint16_t>(trace::Event::kCount); ++e) {
      if (event->string == trace::EventName(static_cast<trace::Event>(e))) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Fail("trace record names an unknown event");
    }
    const Value* ns = record.Find("ns");
    if (ns == nullptr || ns->AsU64() < prev_ns) {
      return Fail("trace is not time-ordered");
    }
    prev_ns = ns->AsU64();
  }
#if defined(STACKTRACK_TRACE_ENABLED)
  if (records->array.empty()) {
    return Fail("armed run produced no trace records");
  }
#endif

  if (root.Find("predictor") == nullptr) {
    return Fail("missing predictor table");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  stacktrack::bench::workload::InstallCrashHandler();
  const bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;
  // First ST_BENCH_THREADS entry if set; default 4 so the merged trace interleaves.
  const EnvConfig env = EnvConfig::Load(/*default_ms=*/100, /*default_threads=*/{4});

  const RunOutput run = RunAndExport(env);
  if (!check) {
    std::fputs(run.json.c_str(), stdout);
    return 0;
  }
  if (!Check(run)) {
    return 1;
  }
  std::printf("trace_dump --check: OK (%zu bytes, retires=%llu frees=%llu)\n",
              run.json.size(), static_cast<unsigned long long>(run.stats.retires),
              static_cast<unsigned long long>(run.stats.frees));
  return 0;
}
