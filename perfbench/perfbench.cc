// perfbench: the load generator behind the repository benchmark. Run it through
// perfbench/run.py, which builds it, pins the configuration and prints the record.
//
// One process runs the system the way a user runs it: one StackTrack domain in its
// default configuration (soft HTM backend, lazy STM, streak predictor, default
// StConfig, inline reclamation) under the lock-free structures of src/ds/, driven by
// kWorkers closed-loop threads. The main thread is the driver: during the timed
// window it only advances the measurement window, samples retired-but-unfreed nodes
// about once per millisecond and reads process CPU time.
//
// Phases:
//   1. set-up, kSetups times (domain, Zipf CDF, structures, prefill); the last system
//      built is the one measured and setup_s is the median;
//   2. warm-up for kWarmupMs, so the split predictor converges and the pool has
//      mapped its slabs and filled its magazines; excluded from every metric;
//   3. the timed window, --seconds long, cut into kWindowMs windows. End-to-end
//      figures are medians over windows, so a burst of host noise moves one window,
//      not the result;
//   4. --trace 1 only: unit costs, timed through the public APIs while the workers
//      are still registered but idle;
//   5. join, drain, and the output checks.
//
// With --trace 1 the even windows time every structure call (spans taken here, around
// the public src/ds/ calls; nothing inside src/ is instrumented) and the odd windows
// run untraced, so the trace overhead is an interleaved comparison in which host drift
// cancels. Counter metrics are Domain::Snapshot() deltas over the timed window.
//
// Output checks; each violation is one failed operation, reported with its key:
//   kv_*           a read of a key known to be stored before the read began finds
//                  it; an update of a stored key does not store it anew; the
//                  changelog dequeue after the thread's own enqueue finds an entry;
//                  at the end the store holds exactly the known keys and the
//                  changelog is empty;
//   list_traverse  at the end the list holds prefill + inserts - removes keys;
//   all            after join and drain, retires == frees; in a traced run the spans
//                  explain the update latency within kClosureTolerancePct.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
// Prints one JSON object on stdout; diagnostics go to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload/generator.h"
#include "core/free_proc.h"
#include "core/predictor.h"
#include "core/reclaim_service.h"
#include "core/stats.h"
#include "ds/hashtable.h"
#include "ds/list.h"
#include "ds/queue.h"
#include "htm/htm.h"
#include "runtime/pool_alloc.h"
#include "runtime/thread_registry.h"
#include "runtime/trace.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::perfbench {
namespace {

using Smr = smr::StackTrackSmr;
using Handle = Smr::Handle;
using bench::workload::KeyDist;
using bench::workload::KeyStream;
using bench::workload::KeyStreamSpec;
using bench::workload::ZipfCdf;
using runtime::trace::NowNanos;

// Three workers leave one of the host's four CPUs to the driver and the host, and
// stay within the machine model's four physical cores: no capacity shrink and no
// injected preemption.
constexpr uint32_t kWorkers = 3;
constexpr int kSetups = 5;
constexpr uint64_t kWarmupMs = 2000;
constexpr uint64_t kWindowMs = 1000;
constexpr double kZipfTheta = 0.99;
// A window's p999 counts only when at least ten samples lie beyond it.
constexpr uint64_t kMinP999Samples = 10000;
// Largest share of the traced update latency that the update's structure-call spans
// may leave unexplained; past it the per-layer split is not trusted.
constexpr double kClosureTolerancePct = 10.0;
constexpr uint32_t kStopWindow = ~0u;
// Variables that would select another configuration than the one measured.
constexpr const char* kPinnedEnv[] = {"ST_STM", "ST_PREDICTOR", "ST_PREDICTOR_WARM",
                                      "ST_HTM", "ST_SCHEME",    "ST_TRACE_ARM"};

#if defined(STACKTRACK_TRACE_ENABLED)
constexpr bool kTraceCompiled = true;
#else
constexpr bool kTraceCompiled = false;
#endif

volatile uint64_t g_sink = 0;  // keeps the unit-cost loops' results observable

// Host-speed calibration. The shared host this benchmark was tuned on slows down and
// speeds up by up to ±30 % over minutes (neighbour load), which moves every CPU-bound
// figure of a run together; neither longer runs nor thread pinning removed it. So
// each worker times a fixed single-thread kernel at the start of every window, and
// the record's CPU-bound figures are scaled to the host speed at which that kernel
// takes kCalibRefNs. The report prints the raw figures and the slowness factor.
constexpr uint32_t kCalibRing = 1u << 18;  // 1 MiB of indices: misses L2, hits the LLC
constexpr uint32_t kCalibSteps = 20000;
constexpr uint32_t kCalibRepeats = 5;
constexpr double kCalibRefNs = 135000.0;  // the kernel on the host the bounds were set on

// Fastest of kCalibRepeats timings, in ns, of a dependent walk over a ring as large as
// the structures' and the STM stripe table's footprint: the same kind of work as a
// structure traversal, in a fixed amount, exposed to the same shared-cache contention.
double CalibrationNs() {
  static thread_local const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> next(kCalibRing);
    for (uint32_t j = 0; j < kCalibRing; ++j) {
      next[j] = (5 * j + 1) % kCalibRing;  // full-period LCG: one scattered cycle
    }
    return next;
  }();
  double best = 0.0;
  for (uint32_t rep = 0; rep < kCalibRepeats; ++rep) {
    const uint64_t begin = NowNanos();
    uint32_t i = 0;
    uint64_t acc = 0;
    for (uint32_t step = 0; step < kCalibSteps; ++step) {
      i = ring[i];
      acc += i * 0x9e3779b9u;
    }
    g_sink = acc;
    const double ns = static_cast<double>(NowNanos() - begin);
    best = rep == 0 ? ns : std::min(best, ns);
  }
  return best;
}

// ---- Workloads -------------------------------------------------------------------

struct Workload {
  const char* name;
  bool kv;                  // the sharded KV service; otherwise one Harris list
  uint32_t update_percent;  // KV: composite updates; list: half inserts, half removes
  KeyDist dist;
  uint64_t key_range;
  uint64_t prefill;  // distinct keys stored before the warm-up
};

constexpr Workload kWorkloads[] = {
    {"kv_update", true, 50, KeyDist::kZipfian, 16384, 8192},
    {"kv_read", true, 5, KeyDist::kZipfian, 16384, 8192},
    {"list_traverse", false, 20, KeyDist::kUniform, 2048, 1024},
};

// ---- Statistics ------------------------------------------------------------------

// Log-linear latency histogram: the workload engine's layout (bench/workload/
// histogram.h) at twice its resolution, with percentiles interpolated inside the
// bucket, so a percentile moves with the data instead of snapping to a bucket edge
// that reads the same run after run. Single writer; merged after the writers stop.
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr uint32_t kTiers = 30;  // tops out near 137 s
  static constexpr uint32_t kBuckets = static_cast<uint32_t>(kSub) * (kTiers + 1);

  Histogram() : counts_(kBuckets, 0) {}

  void Record(uint64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
    sum_ += ns;
  }

  void Merge(const Histogram& other) {
    for (uint32_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Value below which p percent of the samples fall, interpolated linearly inside the
  // bucket that holds that rank; 0 when empty.
  double Percentile(double p) const {
    const double rank = p / 100.0 * static_cast<double>(count_);
    uint64_t below = 0;
    for (uint32_t i = 0; i < kBuckets; ++i) {
      const uint64_t in_bucket = counts_[i];
      if (in_bucket != 0 && static_cast<double>(below + in_bucket) >= rank) {
        const double fraction =
            (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
        return Lower(i) + fraction * Width(i);
      }
      below += in_bucket;
    }
    return 0.0;
  }

 private:
  static uint32_t Index(uint64_t ns) {
    if (ns < kSub) {
      return static_cast<uint32_t>(ns);
    }
    const uint32_t tier = static_cast<uint32_t>(std::bit_width(ns)) - kSubBits;
    if (tier > kTiers) {
      return kBuckets - 1;
    }
    return tier * static_cast<uint32_t>(kSub) +
           static_cast<uint32_t>((ns >> (tier - 1)) & (kSub - 1));
  }
  static double Lower(uint32_t index) {
    const uint32_t tier = index >> kSubBits;
    const uint64_t sub = index & (kSub - 1);
    return tier == 0 ? static_cast<double>(sub)
                     : static_cast<double>((kSub + sub) << (tier - 1));
  }
  static double Width(uint32_t index) {
    const uint32_t tier = index >> kSubBits;
    return tier == 0 ? 1.0 : static_cast<double>(uint64_t{1} << (tier - 1));
  }

  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

// ---- The system under test -------------------------------------------------------

// The bench/ycsb_kv service shape: hash-table shards hold the records, a Harris-list
// range index holds one entry per 64 keys, and a queue is the changelog, all retiring
// into one domain.
class KvService {
 public:
  static constexpr uint32_t kShards = 8;
  static constexpr std::size_t kBucketsPerShard = 512;
  static constexpr uint32_t kIndexShiftBits = 6;

  KvService() {
    for (auto& shard : shards_) {
      shard = std::make_unique<ds::LockFreeHashTable<Smr>>(kBucketsPerShard);
    }
  }

  ds::LockFreeHashTable<Smr>& ShardOf(uint64_t key) {
    return *shards_[(key * 0x9e3779b97f4a7c15ULL >> 40) & (kShards - 1)];
  }
  ds::LockFreeList<Smr>& index() { return index_; }
  ds::LockFreeQueue<Smr>& changelog() { return changelog_; }
  static uint64_t IndexKey(uint64_t key) { return 1 + (key >> kIndexShiftBits); }

  std::size_t SizeUnsafe() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->SizeUnsafe();
    }
    return total;
  }

 private:
  std::unique_ptr<ds::LockFreeHashTable<Smr>> shards_[kShards];
  ds::LockFreeList<Smr> index_;
  ds::LockFreeQueue<Smr> changelog_;
};

// KV keys known to be stored: added at prefill and after each update returns, never
// removed (no KV workload removes keys).
class KnownKeys {
 public:
  explicit KnownKeys(uint64_t key_range) : words_(key_range / 64 + 1) {}

  bool Contains(uint64_t key) const {
    return ((words_[key / 64].load(std::memory_order_acquire) >> (key % 64)) & 1) != 0;
  }
  void Add(uint64_t key) {
    std::atomic<uint64_t>& word = words_[key / 64];
    const uint64_t bit = uint64_t{1} << (key % 64);
    if ((word.load(std::memory_order_relaxed) & bit) == 0) {  // hot keys skip the RMW
      word.fetch_or(bit, std::memory_order_release);
    }
  }
  uint64_t Count() const {
    uint64_t total = 0;
    for (const auto& word : words_) {
      total += static_cast<uint64_t>(std::popcount(word.load(std::memory_order_relaxed)));
    }
    return total;
  }

 private:
  std::vector<std::atomic<uint64_t>> words_;
};

struct System {
  explicit System(const Workload& workload)
      : cdf(workload.dist == KeyDist::kZipfian ? workload.key_range : 1, kZipfTheta),
        known(workload.key_range) {
    if (workload.kv) {
      kv = std::make_unique<KvService>();
    } else {
      list = std::make_unique<ds::LockFreeList<Smr>>();
    }
  }

  Smr::Domain domain;  // default StConfig; declared first, so destroyed last
  ZipfCdf cdf;
  KnownKeys known;
  std::unique_ptr<KvService> kv;
  std::unique_ptr<ds::LockFreeList<Smr>> list;
};

// ---- Operations ------------------------------------------------------------------

// Structure calls a traced window times: a read makes one read call, an update makes
// the others.
enum Span : uint32_t {
  kHashGet,
  kHashPut,
  kIndexPut,
  kLogEnqueue,
  kLogDequeue,
  kListContains,
  kListInsert,
  kListRemove,
  kSpanCount,
};
constexpr const char* kSpanNames[kSpanCount] = {
    "hash_get",    "hash_put",      "index_put",   "log_enqueue",
    "log_dequeue", "list_contains", "list_insert", "list_remove"};
constexpr bool IsReadSpan(uint32_t span) { return span == kHashGet || span == kListContains; }

Histogram* SpanOf(Histogram* spans, Span span) {
  return spans == nullptr ? nullptr : &spans[span];
}

// Runs `call`, timing it into `span` unless `span` is null.
template <typename Call>
auto Spanned(Histogram* span, Call&& call) {
  if (span == nullptr) {
    return call();
  }
  const uint64_t begin = NowNanos();
  auto result = call();
  span->Record(NowNanos() - begin);
  return result;
}

struct KvUpdateResult {
  bool stored_new;  // the hash put inserted a key that was absent
  bool consumed;    // the changelog dequeue returned an entry
};

// The composite update: record put, index put, changelog enqueue and dequeue.
KvUpdateResult KvUpdate(KvService& kv, Handle& h, uint64_t key, Histogram* spans) {
  KvUpdateResult result{};
  result.stored_new = Spanned(SpanOf(spans, kHashPut),
                              [&] { return kv.ShardOf(key).Insert(h, key, key); });
  Spanned(SpanOf(spans, kIndexPut),
          [&] { return kv.index().Insert(h, KvService::IndexKey(key), key); });
  Spanned(SpanOf(spans, kLogEnqueue), [&] {
    kv.changelog().Enqueue(h, key);
    return true;
  });
  result.consumed = Spanned(SpanOf(spans, kLogDequeue),
                            [&] { return kv.changelog().Dequeue(h).has_value(); });
  return result;
}

// Stores `prefill` distinct uniform keys through the workload's own write path (the
// YCSB shape: uniform load phase, skewed run).
void Prefill(System& sys, const Workload& workload, uint64_t seed) {
  runtime::ThreadScope scope;
  Handle& h = sys.domain.AcquireHandle();
  KeyStream keys(KeyStreamSpec{KeyDist::kUniform, workload.key_range, kZipfTheta, seed},
                 nullptr, kWorkers + 1);
  uint64_t stored = 0;
  while (stored < workload.prefill) {
    const uint64_t key = keys.Next();
    const bool stored_new = workload.kv ? KvUpdate(*sys.kv, h, key, nullptr).stored_new
                                        : sys.list->Insert(h, key, key);
    if (stored_new) {
      ++stored;
      sys.known.Add(key);
    }
  }
}

// ---- Workers ---------------------------------------------------------------------

struct WindowRecord {
  uint64_t reads = 0;
  uint64_t updates = 0;
  double calibration_ns = 0.0;  // CalibrationNs() at the window's start
  Histogram read_ns;
  Histogram update_ns;
};

struct WorkerState {
  explicit WorkerState(uint32_t timed_windows) : windows(timed_windows + 1) {}

  void Fail(const char* what, uint64_t key) {
    ++failed;
    if (failures.size() < 4) {
      failures.push_back(std::string(what) + " (key " + std::to_string(key) + ")");
    }
  }

  std::vector<WindowRecord> windows;  // [0] is the warm-up
  Histogram spans[kSpanCount];        // traced windows only
  uint64_t inserted = 0;              // list: successful inserts and removes,
  uint64_t removed = 0;               // warm-up included
  uint64_t free_set_peak = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the report
};

struct Shared {
  Shared(const Workload& w, System& s, uint64_t seed_value, bool traced_run)
      : workload(w), sys(s), seed(seed_value), trace(traced_run) {}

  // In a --trace 1 run the even timed windows are traced; the warm-up never is.
  bool Traced(uint32_t window_index) const {
    return trace && window_index != 0 && window_index % 2 == 0;
  }

  const Workload& workload;
  System& sys;
  const uint64_t seed;
  const bool trace;
  std::atomic<uint32_t> window{0};
  std::atomic<uint32_t> parked{0};
  std::atomic<bool> release{false};
};

void KvOp(Shared& run, Handle& h, WorkerState& me, WindowRecord& rec, Histogram* spans,
          bool update, uint64_t key) {
  KvService& kv = *run.sys.kv;
  const bool known = run.sys.known.Contains(key);
  const uint64_t begin = NowNanos();
  if (!update) {
    const bool found = Spanned(SpanOf(spans, kHashGet),
                               [&] { return kv.ShardOf(key).Contains(h, key); });
    rec.read_ns.Record(NowNanos() - begin);
    ++rec.reads;
    if (known && !found) {
      me.Fail("read missed a key stored before it began", key);
    }
    return;
  }
  const KvUpdateResult result = KvUpdate(kv, h, key, spans);
  rec.update_ns.Record(NowNanos() - begin);
  ++rec.updates;
  if (known && result.stored_new) {
    me.Fail("update stored anew a key that was already stored", key);
  }
  if (!result.consumed) {
    me.Fail("changelog dequeue after the thread's own enqueue found no entry", key);
  }
  run.sys.known.Add(key);
}

void ListOp(Shared& run, Handle& h, WorkerState& me, WindowRecord& rec, Histogram* spans,
            uint64_t dice, uint64_t key) {
  ds::LockFreeList<Smr>& list = *run.sys.list;
  const uint32_t update_percent = run.workload.update_percent;
  const uint64_t begin = NowNanos();
  if (dice >= update_percent) {
    Spanned(SpanOf(spans, kListContains), [&] { return list.Contains(h, key); });
    rec.read_ns.Record(NowNanos() - begin);
    ++rec.reads;
    return;
  }
  const bool insert = dice < update_percent / 2;
  const bool changed =
      insert ? Spanned(SpanOf(spans, kListInsert), [&] { return list.Insert(h, key, key); })
             : Spanned(SpanOf(spans, kListRemove), [&] { return list.Remove(h, key); });
  rec.update_ns.Record(NowNanos() - begin);
  ++rec.updates;
  (insert ? me.inserted : me.removed) += changed ? 1 : 0;
}

void WorkerMain(Shared& run, WorkerState& me, uint32_t index) {
  runtime::ThreadScope scope;
  Handle& h = run.sys.domain.AcquireHandle();
  const Workload& workload = run.workload;
  KeyStream keys(KeyStreamSpec{workload.dist, workload.key_range, kZipfTheta, run.seed},
                 workload.dist == KeyDist::kZipfian ? &run.sys.cdf : nullptr, index);
  uint32_t calibrated = kStopWindow;
  for (uint32_t w = run.window.load(std::memory_order_relaxed); w != kStopWindow;
       w = run.window.load(std::memory_order_relaxed)) {
    WindowRecord& rec = me.windows[w];
    if (w != calibrated) {
      rec.calibration_ns = CalibrationNs();
      calibrated = w;
    }
    Histogram* spans = run.Traced(w) ? me.spans : nullptr;
    const uint64_t dice = keys.Dice(100);
    const uint64_t key = keys.Next();
    if (workload.kv) {
      KvOp(run, h, me, rec, spans, dice < workload.update_percent, key);
    } else {
      ListOp(run, h, me, rec, spans, dice, key);
    }
  }
  me.free_set_peak = h.stats.free_set_peak;
  run.parked.fetch_add(1, std::memory_order_acq_rel);
  // Stay registered, and idle, until the driver has timed the unit costs.
  while (!run.release.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Owns the worker threads. Stop(), which the destructor also runs so that every exit
// path joins, ends the op loop, releases the parked workers and joins them.
class WorkerPool {
 public:
  WorkerPool(Shared& run, std::vector<std::unique_ptr<WorkerState>>& states) : run_(run) {
    for (uint32_t t = 0; t < kWorkers; ++t) {
      threads_.emplace_back(WorkerMain, std::ref(run), std::ref(*states[t]), t);
    }
  }
  ~WorkerPool() { Stop(); }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Blocks until every worker has left its op loop; they stay registered.
  void WaitParked() const {
    while (run_.parked.load(std::memory_order_acquire) < threads_.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void Stop() {
    run_.window.store(kStopWindow, std::memory_order_relaxed);
    run_.release.store(true, std::memory_order_release);
    for (std::thread& thread : threads_) {
      if (thread.joinable()) {
        thread.join();
      }
    }
  }

 private:
  Shared& run_;
  std::vector<std::thread> threads_;
};

// ---- Driver ----------------------------------------------------------------------

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct WindowClock {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

struct Timed {
  std::vector<WindowClock> clocks;  // [0], the warm-up, is not timed
  core::Stats stats_begin;
  core::Stats stats_end;
  runtime::PoolStats pool_begin;
  runtime::PoolStats pool_end;
  double garbage_mean = 0.0;
};

// Drives the timed windows: advances the window index, samples garbage about once per
// millisecond, and reads process CPU time at each window edge.
Timed MeasureWindows(Shared& run, uint32_t windows) {
  Timed timed;
  timed.clocks.resize(windows + 1);
  runtime::PoolAllocator& pool = runtime::PoolAllocator::Instance();
  double garbage_sum = 0.0;
  uint64_t samples = 0;
  timed.stats_begin = run.sys.domain.Snapshot();
  timed.pool_begin = pool.GetStats();
  for (uint32_t w = 1; w <= windows; ++w) {
    const uint64_t begin = NowNanos();
    const double cpu_begin = ProcessCpuSeconds();
    run.window.store(w, std::memory_order_relaxed);
    const uint64_t end = begin + kWindowMs * 1000000;
    for (uint64_t now = begin; now < end; now = NowNanos()) {
      const core::Stats sample = run.sys.domain.Snapshot();
      garbage_sum += sample.retires > sample.frees
                         ? static_cast<double>(sample.retires - sample.frees)
                         : 0.0;
      ++samples;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<uint64_t>(1000000, end - now)));
    }
    timed.clocks[w] = WindowClock{static_cast<double>(NowNanos() - begin) * 1e-9,
                                  ProcessCpuSeconds() - cpu_begin};
  }
  run.window.store(kStopWindow, std::memory_order_relaxed);
  timed.stats_end = run.sys.domain.Snapshot();
  timed.pool_end = pool.GetStats();
  timed.garbage_mean = Ratio(garbage_sum, static_cast<double>(samples));
  return timed;
}

// ---- Unit costs ------------------------------------------------------------------

constexpr uint32_t kUnitOpId = core::kMaxOps - 1;  // a predictor row no structure uses
constexpr uint32_t kLoadLines = 256;

struct alignas(64) Line {
  std::atomic<uint64_t> word{0};
};

[[gnu::noinline]] void EmptyOp(Handle& h) {
  SMR_OP_BEGIN(h, kUnitOpId);
  SMR_OP_END(h);
}

// kLoadLines handle loads, one per cache line, inside one segment.
[[gnu::noinline]] uint64_t LoadOp(Handle& h, const Line* lines) {
  SMR_OP_BEGIN(h, kUnitOpId);
  uint64_t sum = 0;
  for (uint32_t i = 0; i < kLoadLines; ++i) {
    sum += h.Load(lines[i].word);
  }
  SMR_OP_END(h);
  return sum;
}

// Median over repetitions of the mean time of one call of `body`, in ns.
template <typename Body>
double NanosPerCall(uint32_t calls, Body&& body) {
  std::vector<double> per_call;
  for (int rep = 0; rep < 15; ++rep) {
    const uint64_t begin = NowNanos();
    for (uint32_t i = 0; i < calls; ++i) {
      body();
    }
    per_call.push_back(static_cast<double>(NowNanos() - begin) / calls);
  }
  return Median(std::move(per_call));
}

struct UnitCosts {
  double clock_pair_ns = 0.0;
  double empty_op_ns = 0.0;
  double tx_load_ns = 0.0;
  double alloc_free_ns = 0.0;
  double scan_ns_per_candidate = 0.0;
  uint64_t scan_candidates = 0;  // put straight into the free set: freed, never retired
};

UnitCosts MeasureUnitCosts(Handle& h) {
  UnitCosts costs;
  runtime::PoolAllocator& pool = runtime::PoolAllocator::Instance();
  constexpr std::size_t kNodeBytes = sizeof(ds::LockFreeList<Smr>::Node);
  uint64_t sink = 0;
  costs.clock_pair_ns = NanosPerCall(20000, [&] {
    const uint64_t first = NowNanos();
    sink += NowNanos() - first;
  });
  costs.empty_op_ns = NanosPerCall(20000, [&] { EmptyOp(h); });
  const auto lines = std::make_unique<Line[]>(kLoadLines);
  const double load_op_ns = NanosPerCall(2000, [&] { sink += LoadOp(h, lines.get()); });
  costs.tx_load_ns = (load_op_ns - costs.empty_op_ns) / kLoadLines;
  costs.alloc_free_ns = NanosPerCall(20000, [&] { pool.Free(pool.Alloc(kNodeBytes)); });
  // One reclamation round over a full free set of dead pool nodes, as the mutator's
  // inline scan runs it, with the workload's threads still registered.
  const uint32_t batch = h.config().max_free;
  std::vector<double> per_candidate;
  for (int rep = 0; rep < 101; ++rep) {
    for (uint32_t i = 0; i < batch; ++i) {
      h.MutableFreeSet().push_back(pool.Alloc(kNodeBytes));
    }
    costs.scan_candidates += batch;
    const uint64_t begin = NowNanos();
    core::ScanAndFree(h);
    per_candidate.push_back(static_cast<double>(NowNanos() - begin) / batch);
  }
  costs.scan_ns_per_candidate = Median(std::move(per_candidate));
  g_sink = sink;
  return costs;
}

// ---- Checks and record -----------------------------------------------------------

struct Outcome {
  void Check(bool ok, std::string what) {
    if (!ok) {
      ++failed;
      failures.push_back(std::move(what));
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

// Gathers the workers' per-operation checks and runs the end-of-run ones. Call after
// join and drain.
Outcome CheckOutputs(const Workload& workload, System& sys,
                     const std::vector<std::unique_ptr<WorkerState>>& states,
                     uint64_t probe_candidates) {
  Outcome outcome;
  uint64_t inserted = 0;
  uint64_t removed = 0;
  for (const auto& state : states) {
    outcome.failed += state->failed;
    outcome.failures.insert(outcome.failures.end(), state->failures.begin(),
                            state->failures.end());
    for (const WindowRecord& rec : state->windows) {
      outcome.attempted += rec.reads + rec.updates;
    }
    inserted += state->inserted;
    removed += state->removed;
  }
  if (workload.kv) {
    const uint64_t stored = sys.kv->SizeUnsafe();
    const uint64_t known = sys.known.Count();
    outcome.Check(stored == known, "store holds " + std::to_string(stored) + " keys, " +
                                       std::to_string(known) + " known stored");
    outcome.Check(sys.kv->changelog().SizeUnsafe() == 0, "changelog not empty at the end");
  } else {
    const uint64_t size = sys.list->SizeUnsafe();
    const uint64_t expected = workload.prefill + inserted - removed;
    outcome.Check(size == expected, "list holds " + std::to_string(size) +
                                        " keys, expected " + std::to_string(expected));
  }
  const core::Stats totals = core::StatsRegistry::Instance().Sum();
  outcome.Check(totals.retires + probe_candidates == totals.frees,
                "after join and drain " + std::to_string(totals.retires) + " retired and " +
                    std::to_string(probe_candidates) + " probe candidates, but " +
                    std::to_string(totals.frees) + " freed");
  return outcome;
}

std::string Quote(const std::string& text) {
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      quoted += '\\';
      quoted += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      quoted += ' ';
    } else {
      quoted += c;
    }
  }
  return quoted + "\"";
}

class JsonObject {
 public:
  JsonObject& Number(const std::string& key, double value) {
    char text[40];
    std::snprintf(text, sizeof(text), "%.10g", value);
    return Raw(key, std::isfinite(value) ? text : "null");
  }
  JsonObject& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& String(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    text_ += text_.size() == 1 ? "" : ",";
    text_ += Quote(key) + ":" + json;
    return *this;
  }
  std::string str() const { return text_ + "}"; }

 private:
  std::string text_ = "{";
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  uint32_t seconds = 0;
  bool trace = false;
};

struct WindowView {
  bool traced = false;
  double slowness = 1.0;  // median worker CalibrationNs() / kCalibRefNs
  double raw_ops_per_s = 0.0;
  double raw_cpu_us_per_op = 0.0;
  Histogram read;
  Histogram update;

  // Host-speed-scaled figures (see kCalibRefNs).
  double ops_per_s() const { return raw_ops_per_s * slowness; }
  double cpu_us_per_op() const { return raw_cpu_us_per_op / slowness; }
  double ReadNs(double p) const { return read.Percentile(p) / slowness; }
  double UpdateNs(double p) const { return update.Percentile(p) / slowness; }
};

// Builds the JSON record run.py reads: configuration, outcome, end-to-end metrics,
// per-layer metrics (traced runs) and the report-only detail.
std::string Record(const Options& opt, const Shared& run,
                   const std::vector<std::unique_ptr<WorkerState>>& states,
                   const std::vector<double>& setup_s, const Timed& timed,
                   const UnitCosts& costs, Outcome& outcome) {
  const uint32_t windows = static_cast<uint32_t>(timed.clocks.size() - 1);
  std::vector<WindowView> views(windows);
  uint64_t timed_ops = 0;
  for (uint32_t w = 1; w <= windows; ++w) {
    WindowView& view = views[w - 1];
    view.traced = run.Traced(w);
    uint64_t ops = 0;
    std::vector<double> calibrations;
    for (const auto& state : states) {
      const WindowRecord& rec = state->windows[w];
      ops += rec.reads + rec.updates;
      view.read.Merge(rec.read_ns);
      view.update.Merge(rec.update_ns);
      calibrations.push_back(rec.calibration_ns);
    }
    timed_ops += ops;
    view.slowness = Median(std::move(calibrations)) / kCalibRefNs;
    view.raw_ops_per_s = Ratio(static_cast<double>(ops), timed.clocks[w].seconds);
    view.raw_cpu_us_per_op =
        Ratio(timed.clocks[w].cpu_seconds * 1e6, static_cast<double>(ops));
  }
  const auto median_over = [&views](bool traced, auto value) {
    std::vector<double> values;
    for (const WindowView& view : views) {
      if (view.traced == traced) {
        values.push_back(value(view));
      }
    }
    return Median(std::move(values));
  };
  const auto ops_per_s = [](const WindowView& view) { return view.ops_per_s(); };

  // End to end: the untraced windows.
  Histogram untraced_updates;
  std::vector<double> p999;
  for (const WindowView& view : views) {
    if (!view.traced) {
      untraced_updates.Merge(view.update);
      if (view.update.count() >= kMinP999Samples) {
        p999.push_back(view.UpdateNs(99.9));
      }
    }
  }
  const double slowness = median_over(false, [](const WindowView& v) { return v.slowness; });
  JsonObject e2e;
  e2e.Number("ops_per_s", median_over(false, ops_per_s))
      .Number("cpu_us_per_op",
              median_over(false, [](const WindowView& v) { return v.cpu_us_per_op(); }))
      .Number("read_p50_ns", median_over(false, [](const WindowView& v) { return v.ReadNs(50); }))
      .Number("read_p99_ns", median_over(false, [](const WindowView& v) { return v.ReadNs(99); }))
      .Number("update_p50_ns",
              median_over(false, [](const WindowView& v) { return v.UpdateNs(50); }))
      .Number("update_p99_ns",
              median_over(false, [](const WindowView& v) { return v.UpdateNs(99); }))
      // Windows too short for a p999 of their own fall back to the whole timed window.
      .Number("update_p999_ns",
              p999.empty() ? untraced_updates.Percentile(99.9) / slowness : Median(p999))
      .Number("garbage_mean_nodes", timed.garbage_mean)
      .Number("peak_rss_mb", PeakRssMiB())
      .Number("setup_s", Median(setup_s));

  JsonObject detail;
  detail.Number("host_slowness", slowness)
      .Number("raw.ops_per_s", median_over(false, [](const WindowView& v) { return v.raw_ops_per_s; }))
      .Number("raw.cpu_us_per_op",
              median_over(false, [](const WindowView& v) { return v.raw_cpu_us_per_op; }))
      .Number("raw.read_p50_ns",
              median_over(false, [](const WindowView& v) { return v.read.Percentile(50); }))
      .Number("raw.update_p50_ns",
              median_over(false, [](const WindowView& v) { return v.update.Percentile(50); }))
      .Int("timed_ops", timed_ops)
      .Int("updates_sampled", untraced_updates.count())
      .Int("p999_windows", p999.size())
      .Int("deferred_after_drain", core::DeferredFreeList::Instance().Size());

  JsonObject layers;
  if (opt.trace) {
    Histogram spans[kSpanCount];
    for (const auto& state : states) {
      for (uint32_t s = 0; s < kSpanCount; ++s) {
        spans[s].Merge(state->spans[s]);
      }
    }
    Histogram read_calls;
    double update_call_ns = 0.0;
    for (uint32_t s = 0; s < kSpanCount; ++s) {
      if (IsReadSpan(s)) {
        read_calls.Merge(spans[s]);
      } else {
        update_call_ns += static_cast<double>(spans[s].sum());
      }
      if (spans[s].count() == 0) {
        continue;  // a call this workload does not make
      }
      const std::string name = std::string("ds.") + kSpanNames[s];
      detail.Number(name + ".mean_ns", spans[s].mean())
          .Number(name + ".p99_ns", spans[s].Percentile(99.0))
          .Int(name + ".calls", spans[s].count());
    }
    double traced_update_ns = 0.0;
    double traced_updates = 0.0;
    for (const WindowView& view : views) {
      if (view.traced) {
        traced_update_ns += static_cast<double>(view.update.sum());
        traced_updates += static_cast<double>(view.update.count());
      }
    }
    const double closure_gap_pct =
        100.0 * Ratio(traced_update_ns - update_call_ns, traced_update_ns);
    outcome.Check(std::fabs(closure_gap_pct) <= kClosureTolerancePct,
                  "closure: the update spans leave " + std::to_string(closure_gap_pct) +
                      "% of the traced update latency unexplained");
    const double untraced_ops = median_over(false, ops_per_s);

    const auto delta = [&timed](uint64_t core::Stats::*field) {
      return static_cast<double>(timed.stats_end.*field - timed.stats_begin.*field);
    };
    const double ds_ops = delta(&core::Stats::ops);
    const double committed = delta(&core::Stats::segments_committed);
    const double slow = delta(&core::Stats::segments_slow);
    const double conflict = delta(&core::Stats::aborts_conflict);
    const double capacity = delta(&core::Stats::aborts_capacity);
    const double other =
        delta(&core::Stats::aborts_other) + delta(&core::Stats::aborts_explicit);
    const double scans = delta(&core::Stats::scan_calls);
    const double retires = delta(&core::Stats::retires);
    uint64_t free_set_peak = 0;
    for (const auto& state : states) {
      free_set_peak = std::max(free_set_peak, state->free_set_peak);
    }
    const double allocs =
        static_cast<double>(timed.pool_end.total_allocs - timed.pool_begin.total_allocs);
    const double pool_frees =
        static_cast<double>(timed.pool_end.total_frees - timed.pool_begin.total_frees);

    layers.Number("ds.read_call.mean_ns", read_calls.mean())
        .Number("ds.read_call.p99_ns", read_calls.Percentile(99.0))
        .Number("ds.update_calls.mean_ns", Ratio(update_call_ns, traced_updates))
        .Number("core.segments_per_op", Ratio(committed + slow, ds_ops))
        .Number("core.split_len_steps", Ratio(delta(&core::Stats::steps_committed), committed))
        .Number("core.predictor_moves_per_kop",
                Ratio(1000.0 * (delta(&core::Stats::predictor_increases) +
                                delta(&core::Stats::predictor_decreases)),
                      ds_ops))
        .Number("core.slow_segments_per_kop", Ratio(1000.0 * slow, ds_ops))
        .Number("core.empty_op_ns", costs.empty_op_ns)
        .Number("core.scan_ns_per_candidate", costs.scan_ns_per_candidate)
        .Number("core.scans_per_kretire", Ratio(1000.0 * scans, retires))
        .Number("core.scan_words_per_scan", Ratio(delta(&core::Stats::scan_words), scans))
        .Number("core.scan_hits_per_scan", Ratio(delta(&core::Stats::scan_hits), scans))
        .Number("core.scan_restarts_per_scan", Ratio(delta(&core::Stats::scan_restarts), scans))
        .Number("core.freed_per_retired", Ratio(delta(&core::Stats::frees), retires))
        .Number("core.free_set_peak", static_cast<double>(free_set_peak))
        .Number("core.watchdog_reports", delta(&core::Stats::watchdog_reports))
        .Number("core.snapshot_reuse_ratio", Ratio(delta(&core::Stats::snapshot_reuses), scans))
        .Number("htm.commit_ratio", Ratio(committed, committed + conflict + capacity + other))
        .Number("htm.conflict_aborts_per_kop", Ratio(1000.0 * conflict, ds_ops))
        .Number("htm.capacity_aborts_per_kop", Ratio(1000.0 * capacity, ds_ops))
        .Number("htm.other_aborts_per_kop", Ratio(1000.0 * other, ds_ops))
        .Number("htm.tx_load_ns", costs.tx_load_ns)
        .Number("runtime.alloc_free_ns", costs.alloc_free_ns)
        .Number("runtime.allocs_per_op", Ratio(allocs, static_cast<double>(timed_ops)))
        .Number("runtime.pool_frees_per_op", Ratio(pool_frees, static_cast<double>(timed_ops)))
        .Number("runtime.live_objects", static_cast<double>(timed.pool_end.live_objects))
        .Number("runtime.bytes_mapped_mb",
                static_cast<double>(timed.pool_end.bytes_mapped) / (1024.0 * 1024.0))
        .Number("bench.clock_pair_ns", costs.clock_pair_ns)
        .Number("bench.trace_overhead_pct",
                100.0 * Ratio(untraced_ops - median_over(true, ops_per_s), untraced_ops))
        .Number("bench.closure_gap_pct", closure_gap_pct);
  }
  detail.Number("failed_op_ratio", Ratio(static_cast<double>(outcome.failed),
                                         static_cast<double>(outcome.attempted)));

  std::string failures = "[";
  for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
    failures += (i == 0 ? "" : ",") + Quote(outcome.failures[i]);
  }
  failures += "]";

  const core::StConfig defaults;
  JsonObject config;
  config.String("build_type", PERFBENCH_BUILD_TYPE)
      .String("htm_backend", htm::ActiveBackend() == htm::BackendKind::kSoft ? "soft" : "rtm")
      .String("stm_engine", htm::ActiveStmEngine() == htm::StmEngine::kLazy ? "lazy" : "2pl")
      .String("predictor", core::PredictorName(core::ActivePredictor()))
      .Bool("trace_compiled", kTraceCompiled)
      .Int("max_free", defaults.max_free)
      .Bool("hashed_scan", defaults.hashed_scan)
      .Int("workers", kWorkers)
      .Int("setups", kSetups)
      .Int("warmup_ms", kWarmupMs)
      .Int("window_ms", kWindowMs)
      .Int("windows", windows);

  JsonObject record;
  record.String("workload", opt.workload->name)
      .Int("seed", opt.seed)
      .Int("seconds", opt.seconds)
      .Bool("trace", opt.trace)
      .Raw("config", config.str())
      .Int("attempted", outcome.attempted)
      .Int("failed", outcome.failed)
      .Raw("failures", failures)
      .Raw("e2e", e2e.str())
      .Raw("detail", detail.str());
  if (opt.trace) {
    record.Raw("layers", layers.str());
  }
  return record.str();
}

// ---- Entry -----------------------------------------------------------------------

// Accepts exactly --workload NAME --seed N --seconds S --trace 0|1, in any order.
bool ParseArgs(int argc, char** argv, Options* opt) {
  if (argc != 9) {
    return false;
  }
  bool seen_seed = false;
  bool seen_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& candidate : kWorkloads) {
        if (value == candidate.name) {
          opt->workload = &candidate;
        }
      }
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      seen_seed = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      const unsigned long seconds = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || seconds < 1 || seconds > 600) {
        return false;
      }
      opt->seconds = static_cast<uint32_t>(seconds);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      opt->trace = value == "1";
      seen_trace = true;
    } else {
      return false;
    }
  }
  return opt->workload != nullptr && seen_seed && opt->seconds != 0 && seen_trace;
}

// The benchmark measures the default configuration only. run.py removes the pinned
// variables; run by hand with one of them set, the load generator refuses.
std::string ConfigurationDrift() {
  for (const char* name : kPinnedEnv) {
    if (const char* value = std::getenv(name); value != nullptr && value[0] != '\0') {
      return std::string(name) + "=" + value + " would change what is measured";
    }
  }
  if (htm::ActiveBackend() != htm::BackendKind::kSoft) {
    return "the HTM backend is not the soft default";
  }
  if (core::ReclaimService::Active() != nullptr) {
    return "a reclamation service is running";
  }
  return "";
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload kv_update|kv_read|list_traverse --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  if (const std::string drift = ConfigurationDrift(); !drift.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", drift.c_str());
    return 2;
  }
  const Workload& workload = *opt.workload;
  // Two windows at least, so a traced run has one of each kind.
  const uint32_t windows =
      std::max<uint32_t>(2, static_cast<uint32_t>(opt.seconds * 1000 / kWindowMs));

  // 1. Set-up.
  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();  // only one StackTrack domain may be live at a time
    const double slowness = CalibrationNs() / kCalibRefNs;
    const uint64_t begin = NowNanos();
    sys = std::make_unique<System>(workload);
    Prefill(*sys, workload, opt.seed);
    setup_s.push_back(static_cast<double>(NowNanos() - begin) * 1e-9 / slowness);
  }

  // 2. Warm-up: the workers start in window 0.
  Shared run(workload, *sys, opt.seed, opt.trace);
  std::vector<std::unique_ptr<WorkerState>> states;
  for (uint32_t t = 0; t < kWorkers; ++t) {
    states.push_back(std::make_unique<WorkerState>(windows));
  }
  WorkerPool workers(run, states);
  std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));

  // 3. The timed window.
  const Timed timed = MeasureWindows(run, windows);
  workers.WaitParked();

  // 4. Unit costs, with the workers registered but idle.
  runtime::ThreadScope driver_scope;
  Handle& driver = sys->domain.AcquireHandle();
  const UnitCosts costs = opt.trace ? MeasureUnitCosts(driver) : UnitCosts{};

  // 5. Join, then drain what the workers' exit handoff left on the deferred list.
  workers.Stop();
  driver.HandOffFreeSet();
  Outcome outcome = CheckOutputs(workload, *sys, states, costs.scan_candidates);
  const std::string record = Record(opt, run, states, setup_s, timed, costs, outcome);
  std::printf("%s\n", record.c_str());
  return 0;
}

}  // namespace
}  // namespace stacktrack::perfbench

int main(int argc, char** argv) { return stacktrack::perfbench::Main(argc, argv); }
