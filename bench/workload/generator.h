// Deterministic per-thread key-stream generators for the workload engine.
//
// Every stream is a pure function of (spec.seed, thread_index, draw index): two
// KeyStreams built with the same spec and thread index emit identical sequences in
// any process, which is what makes scenario runs replayable (record a run's spec,
// rebuild the exact key pattern later — cross-run determinism is tested in
// tests/workload_test.cc). Distinct threads get decorrelated streams by stretching
// the scenario seed through the golden-ratio multiplier.
//
// The zipfian table lives outside the streams: the CDF over a production-sized key
// range is O(range) doubles and identical for every thread, so the scenario builds
// one ZipfCdf and all streams share it read-only.
#ifndef STACKTRACK_BENCH_WORKLOAD_GENERATOR_H_
#define STACKTRACK_BENCH_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "runtime/rand.h"

namespace stacktrack::bench::workload {

enum class KeyDist : uint8_t {
  kUniform,
  kZipfian,
};

// How one scenario draws keys. `key_range` is inclusive of neither end: keys are
// 1..key_range (key 0 is reserved for the structures' sentinels).
struct KeyStreamSpec {
  KeyDist dist = KeyDist::kUniform;
  uint64_t key_range = 10000;
  double zipf_theta = 0.99;  // YCSB's default skew
  uint64_t seed = 0x5eedULL;
};

// Shared precomputed zipfian CDF over ranks [0, n). Built once per scenario, read
// concurrently by every stream; Lookup is a binary search (O(log n) per draw).
class ZipfCdf {
 public:
  ZipfCdf(uint64_t n, double theta);

  // Rank in [0, n()) whose CDF interval contains u in [0, 1).
  uint64_t Rank(double u) const;

  uint64_t n() const { return cdf_.size(); }
  // Cumulative probability mass of ranks [0, rank]; rank < n().
  double MassUpTo(uint64_t rank) const { return cdf_[rank]; }

 private:
  std::vector<double> cdf_;
};

// Deterministic per-thread key stream. One stream owns the thread's whole RNG state:
// keys, op-mix dice, and any per-op randomness all come from the same generator, so
// replaying a stream replays the thread's entire decision sequence.
class KeyStream {
 public:
  // `cdf` may be null for uniform specs; zipfian specs require the scenario's shared
  // table (sized to spec.key_range).
  KeyStream(const KeyStreamSpec& spec, const ZipfCdf* cdf, uint32_t thread_index)
      : spec_(spec),
        cdf_(cdf),
        rng_(StreamSeed(spec.seed, thread_index)) {}

  // Next key in [1, key_range]. Zipfian rank 0 (the hottest rank) is scattered over
  // the keyspace by a fixed multiplicative hash so the hot keys are not all
  // clustered at the front of sorted structures.
  uint64_t Next() {
    if (spec_.dist == KeyDist::kZipfian && cdf_ != nullptr) {
      const uint64_t rank = cdf_->Rank(rng_.NextDouble());
      return 1 + ScatterRank(rank, spec_.key_range);
    }
    return 1 + rng_.NextBounded(spec_.key_range);
  }

  // Uniform dice in [0, bound) from the same stream (op-mix selection).
  uint64_t Dice(uint64_t bound) { return rng_.NextBounded(bound); }

  // The per-thread seed derivation, exposed so tests can assert the decorrelation
  // contract directly.
  static uint64_t StreamSeed(uint64_t scenario_seed, uint32_t thread_index) {
    return scenario_seed ^ (0x9e3779b97f4a7c15ULL * (thread_index + 1));
  }

  // Deterministic rank -> key permutation (also used by tests to invert the skew
  // check: the expected hot key set is computable without drawing).
  static uint64_t ScatterRank(uint64_t rank, uint64_t range) {
    return (rank * 0x9e3779b97f4a7c15ULL) % range;
  }

 private:
  KeyStreamSpec spec_;
  const ZipfCdf* cdf_;
  runtime::Xorshift128 rng_;
};

}  // namespace stacktrack::bench::workload

#endif  // STACKTRACK_BENCH_WORKLOAD_GENERATOR_H_
