// Time-resolved stats export (DESIGN.md §6).
//
// core/stats.h answers "how much happened, total"; this module answers "when": a
// StatsTimeline samples the global counter sum on a fixed period, each sample
// timestamped on the same CLOCK_MONOTONIC timebase as runtime/trace.h records, so a
// merged event trace and a counter timeline from one run align. The derived series —
// reclamation lag (retires − frees), free_set depth, abort rate — are what the SMR
// robustness literature (Brown; Hyaline) judges schemes on, and what Figs. 3–5 of the
// paper plot as end-of-run aggregates.
//
// Exporters emit JSON (machine-consumed: bench/trace_dump, tests) and CSV (one row
// per sample, for plotting). A minimal JSON parser (minijson) rides along so tests
// and `trace_dump --check` can parse the output back without a dependency.
#ifndef STACKTRACK_CORE_STATS_EXPORT_H_
#define STACKTRACK_CORE_STATS_EXPORT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "runtime/trace.h"

namespace stacktrack::core {

// ---- Field reflection ----------------------------------------------------------------

// Name/offset table over every Stats counter, in declaration order, generated from
// STACKTRACK_STATS_FIELDS (core/stats.h). The exporters and the JSON round trip are
// driven by this table.
struct StatsField {
  const char* name;
  uint64_t Stats::*member;
};
const StatsField* StatsFields(std::size_t* count);

// ---- Timeline ------------------------------------------------------------------------

struct StatsSnapshot {
  uint64_t ns = 0;    // trace::NowNanos() at sampling time
  Stats totals;       // StatsRegistry::Sum() — cumulative, not a delta
};

// Reclamation lag at one sample: nodes retired but not yet returned to the pool.
// Saturates at 0: the sample is a racy mid-run Sum(), and a retire counted on an
// already-summed context whose matching free lands on a not-yet-summed one (deferred
// adoption crosses threads) can make observed frees exceed observed retires — an
// unsigned subtraction would explode the exported series to ~1.8e19.
inline uint64_t ReclamationLag(const StatsSnapshot& s) {
  return s.totals.retires >= s.totals.frees ? s.totals.retires - s.totals.frees : 0;
}

// Periodic sampler of the global stats sum. Single-driver: Sample(), StartPeriodic()
// / StopPeriodic() and samples() must be called from one controlling thread; the
// background sampler thread only appends between StartPeriodic and StopPeriodic.
class StatsTimeline {
 public:
  StatsTimeline() = default;
  ~StatsTimeline() { StopPeriodic(); }
  StatsTimeline(const StatsTimeline&) = delete;
  StatsTimeline& operator=(const StatsTimeline&) = delete;

  void Sample();
  void StartPeriodic(uint32_t period_ms);
  void StopPeriodic();

  // Stable only once the sampler is stopped (or was never started).
  const std::vector<StatsSnapshot>& samples() const { return samples_; }
  void Clear() { samples_.clear(); }

 private:
  std::vector<StatsSnapshot> samples_;
  std::thread sampler_;
  std::atomic<bool> stop_{false};
};

// ---- Exporters -----------------------------------------------------------------------

// Flat JSON object, one key per Stats counter.
std::string StatsToJson(const Stats& stats);
// Inverse of StatsToJson: missing keys stay zero; returns false on parse failure.
bool StatsFromJson(std::string_view json, Stats* out);

// {"samples":[{"ns":..,"lag":..,"stats":{...}}, ...]} — ns is made relative to the
// first sample so the series starts at 0.
std::string TimelineToJson(const std::vector<StatsSnapshot>& samples);

// {"dropped":..,"records":[{"ns":..,"tid":..,"event":"segment_begin","arg":..},...]}.
std::string TraceToJson(const std::vector<runtime::trace::MergedRecord>& records,
                        uint64_t dropped);

// Split-predictor table dump: for every registered context, the per-(op, segment)
// limits the predictor currently holds (initialized cells only). Racy snapshot —
// call at a quiescent point.
std::string PredictorTableToJson();

// ---- minijson ------------------------------------------------------------------------

namespace minijson {

// Parsed JSON value. Numbers keep both a double and (when the text was an unsigned
// integer) an exact uint64 so counter round trips do not pass through a double.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  uint64_t unsigned_value = 0;
  bool is_unsigned = false;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  const Value* Find(std::string_view key) const;  // object member or nullptr
  uint64_t AsU64() const { return is_unsigned ? unsigned_value : static_cast<uint64_t>(number); }
};

// Parses one complete JSON document (trailing whitespace allowed). Returns false on
// any syntax error. Supports the generated subset: null/bool/number/string (with the
// standard escapes) /array/object.
bool Parse(std::string_view text, Value* out);

}  // namespace minijson

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_STATS_EXPORT_H_
