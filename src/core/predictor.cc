#include "core/predictor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/stats_export.h"
#include "runtime/trace.h"

namespace stacktrack::core {

namespace trace = runtime::trace;

namespace {

PredictorKind PredictorFromEnv() {
  const char* value = std::getenv("ST_PREDICTOR");
  if (value == nullptr || value[0] == '\0' || std::strcmp(value, "streak") == 0) {
    return PredictorKind::kStreak;
  }
  if (std::strcmp(value, "cost") == 0) {
    return PredictorKind::kCost;
  }
  std::fprintf(stderr,
               "stacktrack: unknown ST_PREDICTOR value '%s' (expected streak|cost); "
               "using the streak predictor\n",
               value);
  return PredictorKind::kStreak;
}

// Latch ST_PREDICTOR before main(), so every segment in the process — including ones
// run from static initializers — sees one policy. ST_PREDICTOR_WARM optionally
// pre-loads the warm-start table the same way.
[[maybe_unused]] const bool g_predictor_env_latched = [] {
  internal::g_predictor = PredictorFromEnv();
  if (const char* path = std::getenv("ST_PREDICTOR_WARM");
      path != nullptr && path[0] != '\0') {
    std::string error;
    if (!PredictorWarmTable::Instance().LoadFromFile(path, &error)) {
      std::fprintf(stderr, "stacktrack: ST_PREDICTOR_WARM=%s failed to load: %s\n",
                   path, error.c_str());
    }
  }
  return true;
}();

PredictorBands g_override_bands;
bool g_bands_overridden = false;

// Sizes the hysteresis bands from this host's measured cost ratio R between running
// one instrumented read on the software slow path (SafeLoad + seq_cst fence +
// re-validate + RefSet-style store, Algorithm 5) and replaying it inside a fresh
// transaction. A segment that keeps aborting eventually escalates past
// slow_after_fails onto the slow path, so the more the slow path costs relative to a
// transactional retry, the lower the abort rate worth tolerating before shrinking:
//   capacity_shrink = EwmaOne / (2 + R), clamped to [1/16, 1/3].
// Conflict aborts are transient, so their threshold sits at twice the capacity one
// (capped at 1/2); growth needs both EWMAs under a quarter of the capacity threshold,
// leaving a wide dead band in between.
PredictorBands CalibratePredictorBands() {
  constexpr int kIters = 64;
  constexpr int kReads = 8;  // small enough to fit every test's capacity budget
  std::atomic<uint64_t> word{1};
  std::atomic<uint64_t> ref_slot{0};
  volatile uint64_t sink = 0;

  uint64_t t0 = trace::NowNanos();
  for (int i = 0; i < kIters; ++i) {
    const int rc = ST_HTM_BEGIN_POINT();
    if (rc == htm::kTxStarted) {
      uint64_t sum = 0;
      for (int r = 0; r < kReads; ++r) {
        sum += htm::TxLoad(word);
      }
      sink = sink + sum;
      htm::TxCommit();
    }
  }
  const uint64_t tx_ns = trace::NowNanos() - t0;

  t0 = trace::NowNanos();
  for (int i = 0; i < kIters; ++i) {
    uint64_t sum = 0;
    for (int r = 0; r < kReads; ++r) {
      const uint64_t value = htm::SafeLoad(word);
      ref_slot.store(value, std::memory_order_release);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      sum += htm::SafeLoad(word);
    }
    sink = sink + sum;
  }
  const uint64_t slow_ns = trace::NowNanos() - t0;

  uint64_t ratio = slow_ns / (tx_ns == 0 ? 1 : tx_ns);
  if (ratio < 1) {
    ratio = 1;
  } else if (ratio > 64) {
    ratio = 64;
  }

  PredictorBands bands;
  uint32_t capacity = kPredictorEwmaOne / static_cast<uint32_t>(2 + ratio);
  if (capacity < kPredictorEwmaOne / 16) {
    capacity = kPredictorEwmaOne / 16;
  } else if (capacity > kPredictorEwmaOne / 3) {
    capacity = kPredictorEwmaOne / 3;
  }
  bands.capacity_shrink = capacity;
  bands.conflict_shrink =
      capacity * 2 < kPredictorEwmaOne / 2 ? capacity * 2 : kPredictorEwmaOne / 2;
  bands.grow = capacity / 4;
  bands.cooldown = 4;
  return bands;
}

}  // namespace

void SelectPredictor(PredictorKind kind) {
  if (htm::InTx()) {
    std::fprintf(stderr, "stacktrack: SelectPredictor called inside a transaction\n");
    std::abort();
  }
  internal::g_predictor = kind;
}

PredictorKind ActivePredictor() { return internal::g_predictor; }

const char* PredictorName(PredictorKind kind) {
  return kind == PredictorKind::kStreak ? "streak" : "cost";
}

const PredictorBands& ActivePredictorBands() {
  if (g_bands_overridden) {
    return g_override_bands;
  }
  // Thread-safe lazy calibration; always reached outside a transaction (the decision
  // paths run after an abort unwound or after a commit).
  static const PredictorBands calibrated = CalibratePredictorBands();
  return calibrated;
}

void OverridePredictorBands(const PredictorBands& bands) {
  g_override_bands = bands;
  g_bands_overridden = true;
}

void ClearPredictorBandsOverride() { g_bands_overridden = false; }

// ---- PredictorWarmTable ----------------------------------------------------------

PredictorWarmTable& PredictorWarmTable::Instance() {
  static PredictorWarmTable table;
  return table;
}

void PredictorWarmTable::Publish(uint32_t op, uint32_t segment, uint16_t limit) {
  if (op >= kMaxOps || segment >= kMaxSegments || limit == 0) {
    return;
  }
  cells_[op][segment].store(limit, std::memory_order_relaxed);
  any_.store(true, std::memory_order_release);
}

std::size_t PredictorWarmTable::CountSeeds() const {
  std::size_t count = 0;
  for (uint32_t op = 0; op < kMaxOps; ++op) {
    for (uint32_t seg = 0; seg < kMaxSegments; ++seg) {
      if (cells_[op][seg].load(std::memory_order_relaxed) != 0) {
        ++count;
      }
    }
  }
  return count;
}

void PredictorWarmTable::Reset() {
  for (uint32_t op = 0; op < kMaxOps; ++op) {
    for (uint32_t seg = 0; seg < kMaxSegments; ++seg) {
      cells_[op][seg].store(0, std::memory_order_relaxed);
    }
  }
  any_.store(false, std::memory_order_release);
  loaded_.store(false, std::memory_order_release);
}

namespace {

// One flat cell list ({"op","segment","limit"}): the tuner output shape, and the
// per-thread shape inside a PredictorTableToJson dump.
bool FoldCellArray(const minijson::Value& cells, std::vector<uint16_t>* sums,
                   std::string* error) {
  if (cells.kind != minijson::Value::Kind::kArray) {
    *error = "\"cells\" is not an array";
    return false;
  }
  for (const minijson::Value& cell : cells.array) {
    const minijson::Value* op = cell.Find("op");
    const minijson::Value* segment = cell.Find("segment");
    const minijson::Value* limit = cell.Find("limit");
    if (op == nullptr || segment == nullptr || limit == nullptr) {
      *error = "cell missing op/segment/limit";
      return false;
    }
    const uint64_t o = op->AsU64();
    const uint64_t s = segment->AsU64();
    uint64_t l = limit->AsU64();
    if (o >= kMaxOps || s >= kMaxSegments) {
      continue;  // table from a build with different geometry: skip out-of-range
    }
    if (l > 0xffff) {
      l = 0xffff;
    }
    sums->push_back(static_cast<uint16_t>(l));
    // Index encoded alongside: the caller groups by (op, segment).
    sums->push_back(static_cast<uint16_t>(o * kMaxSegments + s));
  }
  return true;
}

}  // namespace

bool PredictorWarmTable::LoadFromJson(std::string_view json, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  minijson::Value doc;
  if (!minijson::Parse(json, &doc)) {
    *error = "JSON parse failure";
    return false;
  }
  // (limit, cell-index) pairs from every cell list in the document.
  std::vector<uint16_t> flat;
  if (const minijson::Value* cells = doc.Find("cells")) {
    if (!FoldCellArray(*cells, &flat, error)) {
      return false;
    }
  } else if (const minijson::Value* threads = doc.Find("threads")) {
    if (threads->kind != minijson::Value::Kind::kArray) {
      *error = "\"threads\" is not an array";
      return false;
    }
    for (const minijson::Value& thread : threads->array) {
      const minijson::Value* cells_member = thread.Find("cells");
      if (cells_member == nullptr) {
        *error = "thread entry missing \"cells\"";
        return false;
      }
      if (!FoldCellArray(*cells_member, &flat, error)) {
        return false;
      }
    }
  } else {
    *error = "document has neither \"cells\" nor \"threads\"";
    return false;
  }

  // Merge: per cell, the median of every value seen (one value per thread in a dump;
  // exactly one in tuner output). Medians resist one outlier thread that barely
  // touched a cell.
  std::vector<std::vector<uint16_t>> per_cell(kMaxOps * kMaxSegments);
  for (std::size_t i = 0; i + 1 < flat.size(); i += 2) {
    per_cell[flat[i + 1]].push_back(flat[i]);
  }
  std::size_t seeded = 0;
  for (std::size_t index = 0; index < per_cell.size(); ++index) {
    std::vector<uint16_t>& values = per_cell[index];
    if (values.empty()) {
      continue;
    }
    std::sort(values.begin(), values.end());
    const uint16_t median = values[values.size() / 2];
    if (median == 0) {
      continue;  // a learned limit of 0 cannot be distinguished from "no seed"
    }
    cells_[index / kMaxSegments][index % kMaxSegments].store(median,
                                                            std::memory_order_relaxed);
    ++seeded;
  }
  if (seeded != 0) {
    any_.store(true, std::memory_order_release);
  }
  loaded_.store(true, std::memory_order_release);
  return true;
}

bool PredictorWarmTable::LoadFromFile(const std::string& path, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  return LoadFromJson(text, error);
}

}  // namespace stacktrack::core
