// Small deterministic PRNGs used on benchmark and simulation hot paths.
//
// std::mt19937 is too heavy for per-operation decisions inside measured loops, and the
// machine model must be reproducible across runs, so everything here is seeded
// explicitly and has value semantics.
#ifndef STACKTRACK_RUNTIME_RAND_H_
#define STACKTRACK_RUNTIME_RAND_H_

#include <cstdint>

namespace stacktrack::runtime {

// SplitMix64: used to stretch a single user seed into independent stream seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(uint64_t seed) : state_(seed) {}

  constexpr uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// xoshiro-style xorshift128+: fast enough for one draw per simulated event.
// Constexpr-constructible so the STM descriptor that embeds one can be a `constinit`
// thread-local (htm/soft_backend.h).
class Xorshift128 {
 public:
  explicit constexpr Xorshift128(uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  constexpr void Seed(uint64_t seed) {
    SplitMix64 mix(seed);
    s0_ = mix.Next();
    s1_ = mix.Next();
    if (s0_ == 0 && s1_ == 0) {
      s1_ = 1;  // The all-zero state is a fixed point.
    }
  }

  uint64_t Next() {
    uint64_t x = s0_;
    const uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  // Uniform in [0, bound). Bias is negligible for bound << 2^64.
  uint64_t NextBounded(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

  // Bernoulli draw with probability `p`.
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  uint64_t s0_ = 0;
  uint64_t s1_ = 0;
};

}  // namespace stacktrack::runtime

#endif  // STACKTRACK_RUNTIME_RAND_H_
