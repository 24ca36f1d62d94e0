#include "core/stats_export.h"

#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "core/thread_context.h"

namespace stacktrack::core {

// ---- Field reflection ----------------------------------------------------------------

namespace {

constexpr StatsField kStatsFields[] = {
#define STACKTRACK_STATS_FIELD(name) {#name, &Stats::name},
    STACKTRACK_STATS_FIELDS(STACKTRACK_STATS_FIELD)
#undef STACKTRACK_STATS_FIELD
};

constexpr std::size_t kStatsFieldCount = sizeof(kStatsFields) / sizeof(kStatsFields[0]);

void AppendU64(std::string& out, uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out += buf;
}

void AppendStatsObject(std::string& out, const Stats& stats) {
  out += '{';
  for (std::size_t i = 0; i < kStatsFieldCount; ++i) {
    if (i != 0) {
      out += ',';
    }
    out += '"';
    out += kStatsFields[i].name;
    out += "\":";
    AppendU64(out, stats.*(kStatsFields[i].member));
  }
  out += '}';
}

}  // namespace

const StatsField* StatsFields(std::size_t* count) {
  *count = kStatsFieldCount;
  return kStatsFields;
}

// ---- Timeline ------------------------------------------------------------------------

void StatsTimeline::Sample() {
  StatsSnapshot snap;
  snap.ns = runtime::trace::NowNanos();
  snap.totals = StatsRegistry::Instance().Sum();
  samples_.push_back(snap);
}

void StatsTimeline::StartPeriodic(uint32_t period_ms) {
  StopPeriodic();
  stop_.store(false, std::memory_order_release);
  Sample();  // t=0 baseline, taken synchronously
  sampler_ = std::thread([this, period_ms] {
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
      Sample();
    }
  });
}

void StatsTimeline::StopPeriodic() {
  if (sampler_.joinable()) {
    stop_.store(true, std::memory_order_release);
    sampler_.join();
  }
}

// ---- Exporters -----------------------------------------------------------------------

std::string StatsToJson(const Stats& stats) {
  std::string out;
  out.reserve(kStatsFieldCount * 32);
  AppendStatsObject(out, stats);
  return out;
}

bool StatsFromJson(std::string_view json, Stats* out) {
  minijson::Value doc;
  if (!minijson::Parse(json, &doc) || doc.kind != minijson::Value::Kind::kObject) {
    return false;
  }
  *out = Stats{};
  for (std::size_t i = 0; i < kStatsFieldCount; ++i) {
    if (const minijson::Value* v = doc.Find(kStatsFields[i].name)) {
      if (v->kind != minijson::Value::Kind::kNumber) {
        return false;
      }
      out->*(kStatsFields[i].member) = v->AsU64();
    }
  }
  return true;
}

std::string TimelineToJson(const std::vector<StatsSnapshot>& samples) {
  std::string out = "{\"samples\":[";
  const uint64_t t0 = samples.empty() ? 0 : samples.front().ns;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += "{\"ns\":";
    AppendU64(out, samples[i].ns - t0);
    out += ",\"lag\":";
    AppendU64(out, ReclamationLag(samples[i]));
    out += ",\"stats\":";
    AppendStatsObject(out, samples[i].totals);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string TimelineToCsv(const std::vector<StatsSnapshot>& samples) {
  std::string out = "ns";
  for (std::size_t i = 0; i < kStatsFieldCount; ++i) {
    out += ',';
    out += kStatsFields[i].name;
  }
  out += ",lag\n";
  const uint64_t t0 = samples.empty() ? 0 : samples.front().ns;
  for (const StatsSnapshot& s : samples) {
    AppendU64(out, s.ns - t0);
    for (std::size_t i = 0; i < kStatsFieldCount; ++i) {
      out += ',';
      AppendU64(out, s.totals.*(kStatsFields[i].member));
    }
    out += ',';
    AppendU64(out, ReclamationLag(s));
    out += '\n';
  }
  return out;
}

std::string TraceToJson(const std::vector<runtime::trace::MergedRecord>& records,
                        uint64_t dropped) {
  namespace trace = runtime::trace;
  std::string out = "{\"dropped\":";
  AppendU64(out, dropped);
  out += ",\"records\":[";
  const uint64_t t0 = records.empty() ? 0 : records.front().ns;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::MergedRecord& r = records[i];
    if (i != 0) {
      out += ',';
    }
    out += "{\"ns\":";
    AppendU64(out, r.ns - t0);
    out += ",\"tid\":";
    AppendU64(out, r.tid);
    out += ",\"event\":\"";
    out += trace::EventName(r.event);
    out += "\",\"arg\":";
    AppendU64(out, r.arg);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string PredictorTableToJson() {
  std::string out = "{\"threads\":[";
  bool first_thread = true;
  const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
  for (uint32_t tid = 0; tid < watermark && tid < runtime::kMaxThreads; ++tid) {
    const StContext* ctx = ActivityArray::Instance().Get(tid);
    if (ctx == nullptr) {
      continue;
    }
    if (!first_thread) {
      out += ',';
    }
    first_thread = false;
    out += "{\"tid\":";
    AppendU64(out, tid);
    out += ",\"cells\":[";
    bool first_cell = true;
    for (uint32_t op = 0; op < kMaxOps; ++op) {
      for (uint32_t seg = 0; seg < kMaxSegments; ++seg) {
        // Keyed on the first-touch marker, not on limit == 0: a cell whose limit
        // legitimately shrank to a min_split_limit of 0 must still be exported
        // (the old limit-based test silently dropped exactly those cells).
        if (!ctx->predictor_cell_initialized(op, seg)) {
          continue;  // the (op, segment) pair was never reached
        }
        const uint32_t limit = ctx->predictor_limit(op, seg);
        if (!first_cell) {
          out += ',';
        }
        first_cell = false;
        out += "{\"op\":";
        AppendU64(out, op);
        out += ",\"segment\":";
        AppendU64(out, seg);
        out += ",\"limit\":";
        AppendU64(out, limit);
        out += '}';
      }
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

// ---- minijson ------------------------------------------------------------------------

namespace minijson {

const Value* Value::Find(std::string_view key) const {
  for (const auto& [name, value] : object) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return pos < text.size() && text[pos] == c;
  }

  bool ParseString(std::string* out) {
    if (!Eat('"')) {
      return false;
    }
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos >= text.size()) {
          return false;
        }
        const char esc = text[pos++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            // Exporters never emit \u escapes; accept and keep the raw sequence so
            // foreign documents still parse structurally.
            if (pos + 4 > text.size()) {
              return false;
            }
            out->append("\\u");
            out->append(text.substr(pos, 4));
            pos += 4;
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(Value* out) {
    SkipWs();
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') {
      ++pos;
    }
    bool integral = true;
    while (pos < text.size()) {
      const char c = text[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) {
      return false;
    }
    const std::string token(text.substr(start, pos - start));
    out->kind = Value::Kind::kNumber;
    out->number = std::strtod(token.c_str(), nullptr);
    if (integral && token[0] != '-') {
      out->unsigned_value = std::strtoull(token.c_str(), nullptr, 10);
      out->is_unsigned = true;
    }
    return true;
  }

  bool ParseValue(Value* out, int depth) {
    if (depth > 64) {
      return false;  // defensive nesting cap
    }
    SkipWs();
    if (pos >= text.size()) {
      return false;
    }
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out->kind = Value::Kind::kObject;
      if (Eat('}')) {
        return true;
      }
      while (true) {
        std::string key;
        Value member;
        SkipWs();
        if (!ParseString(&key) || !Eat(':') || !ParseValue(&member, depth + 1)) {
          return false;
        }
        out->object.emplace_back(std::move(key), std::move(member));
        if (Eat(',')) {
          continue;
        }
        return Eat('}');
      }
    }
    if (c == '[') {
      ++pos;
      out->kind = Value::Kind::kArray;
      if (Eat(']')) {
        return true;
      }
      while (true) {
        Value element;
        if (!ParseValue(&element, depth + 1)) {
          return false;
        }
        out->array.push_back(std::move(element));
        if (Eat(',')) {
          continue;
        }
        return Eat(']');
      }
    }
    if (c == '"') {
      out->kind = Value::Kind::kString;
      return ParseString(&out->string);
    }
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      out->kind = Value::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      out->kind = Value::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      out->kind = Value::Kind::kNull;
      return true;
    }
    return ParseNumber(out);
  }
};

}  // namespace

bool Parse(std::string_view text, Value* out) {
  Parser parser{text};
  *out = Value{};
  if (!parser.ParseValue(out, 0)) {
    return false;
  }
  parser.SkipWs();
  return parser.pos == text.size();
}

}  // namespace minijson

}  // namespace stacktrack::core
