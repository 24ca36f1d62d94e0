#include "bench/workload/scenario.h"

#include <execinfo.h>
#include <signal.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "runtime/thread_registry.h"
#include "runtime/trace.h"

namespace stacktrack::bench::workload {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kRead: return "read";
    case OpKind::kInsert: return "insert";
    case OpKind::kRemove: return "remove";
    case OpKind::kScan: return "scan";
    case OpKind::kCount: break;
  }
  return "unknown";
}

Scenario YcsbScenario(char letter, uint64_t key_range, bool with_scans) {
  Scenario scenario;
  scenario.keys.dist = KeyDist::kZipfian;
  scenario.keys.key_range = key_range;
  scenario.keys.zipf_theta = 0.99;
  scenario.prefill = key_range / 2;
  switch (letter) {
    case 'a':
    case 'A':
      scenario.name = "ycsb-a";
      scenario.mix.insert_percent = 50;  // update-heavy: 50/50
      break;
    case 'b':
    case 'B':
      scenario.name = "ycsb-b";
      scenario.mix.insert_percent = 5;  // read-mostly: 95/5
      break;
    case 'c':
    case 'C':
    default:
      scenario.name = "ycsb-c";
      scenario.mix.insert_percent = 0;  // read-only
      break;
  }
  scenario.mix.remove_percent = 0;
  scenario.mix.scan_percent = 0;
  if (with_scans) {
    scenario.mix.scan_percent = 5;  // 5% of ops walk the secondary index
    scenario.name += "+scan";
  }
  return scenario;
}

namespace {

// The whole of `text` as an unsigned number in [lo, hi]: no sign, no whitespace, no
// trailing characters, no overflow. Base 0 also accepts 0x hex.
template <typename T>
bool ParseWhole(const char* text, int base, uint64_t lo, uint64_t hi, T* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, base);
  if (errno == ERANGE || *end != '\0' || value < lo || value > hi) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

}  // namespace

bool ParseThreadCount(const char* text, uint32_t* out) {
  return ParseWhole(text, 10, 1, runtime::kMaxThreads, out);
}

bool ParseDurationMs(const char* text, uint32_t* out) {
  return ParseWhole(text, 10, 1, std::numeric_limits<uint32_t>::max(), out);
}

bool EnvConfig::Parse(EnvConfig* env, std::string* error) {
  auto reject = [error](const char* name, const char* value, const std::string& expected) {
    *error = std::string(name) + "=\"" + value + "\": expected " + expected;
    return false;
  };
  if (const char* value = std::getenv("ST_BENCH_MS"); value != nullptr) {
    if (!ParseDurationMs(value, &env->duration_ms)) {
      return reject("ST_BENCH_MS", value, "a window in ms >= 1");
    }
  }
  if (const char* value = std::getenv("ST_BENCH_THREADS"); value != nullptr) {
    env->threads.clear();
    const std::string spec(value);
    for (std::size_t begin = 0;;) {
      const std::size_t comma = spec.find(',', begin);
      uint32_t threads = 0;
      if (!ParseThreadCount(spec.substr(begin, comma - begin).c_str(), &threads)) {
        return reject("ST_BENCH_THREADS", value,
                      "a comma list of thread counts in 1.." +
                          std::to_string(runtime::kMaxThreads));
      }
      env->threads.push_back(threads);
      if (comma == std::string::npos) {
        break;
      }
      begin = comma + 1;
    }
  }
  if (const char* value = std::getenv("ST_BENCH_SEED"); value != nullptr) {
    if (!ParseWhole(value, 0, 0, std::numeric_limits<uint64_t>::max(), &env->seed)) {
      return reject("ST_BENCH_SEED", value, "a decimal or 0x hex number");
    }
  }
  env->trace_arm = std::getenv("ST_TRACE_ARM") != nullptr;
  return true;
}

EnvConfig EnvConfig::Load(uint32_t default_ms, std::vector<uint32_t> default_threads,
                          uint64_t default_seed) {
  EnvConfig env{default_ms, std::move(default_threads), default_seed, false};
  std::string error;
  if (!Parse(&env, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  return env;
}

Scenario MapScenario(const EnvConfig& env, uint32_t threads, uint64_t key_range) {
  Scenario scenario;
  scenario.name = "map";
  scenario.mix.insert_percent = 10;
  scenario.mix.remove_percent = 10;
  scenario.keys.key_range = key_range;
  scenario.prefill = key_range / 2;
  scenario.threads = threads;
  scenario.measure_latency = false;
  env.Apply(&scenario);
  return scenario;
}

namespace {

void CrashHandler(int sig) {
  void* frames[32];
  backtrace_symbols_fd(frames, backtrace(frames, 32), 2);
  _exit(128 + sig);
}

}  // namespace

void InstallCrashHandler() {
  signal(SIGSEGV, CrashHandler);
  signal(SIGBUS, CrashHandler);
}

void PrintHeader(const EnvConfig& env, const char* title, const char* workload) {
  if (env.trace_arm) {
    runtime::trace::Arm(true);
    std::printf("# event tracing: ARMED\n");
  }
  std::printf("# %s\n# workload: %s\n", title, workload);
  std::printf("# machine model: 4 cores x 2 SMT (software HTM substrate)\n");
}

}  // namespace stacktrack::bench::workload
