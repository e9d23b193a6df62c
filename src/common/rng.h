// Deterministic random number generation.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng. Substreams are created with fork(label) so that adding a consumer of
// randomness in one module never perturbs the draws seen by another module —
// a requirement for reproducible experiments (DESIGN.md §4).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace acdn {

/// MT19937-64 whose output is word-for-word that of std::mt19937_64 for
/// the same seed, so the std distributions below see the same words
/// (tests/common_test.cpp pins this). Only the cost differs. std seeds
/// all 312 state words and twists all 312 before the first draw, which a
/// keyed substream taking a few draws pays in full. Here the first
/// generation is seeded and twisted one word per draw, in std's order and
/// in place: new word k reads initial words k, k+1 and k+156 (k < 156),
/// later words read new word k-156, and word 311 reads new words 0 and
/// 155. D < 156 draws thus cost 156 + D seeding steps and D twist steps
/// instead of 312 + 312. Later generations are twisted whole. Copies
/// carry the lazy cursor and continue identically.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) noexcept { x_[0] = seed; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (next_ >= ready_) [[unlikely]] refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::uint32_t kN = 312;  // state words
  static constexpr std::uint32_t kM = 156;  // twist offset
  static constexpr result_type kLowerMask = (result_type{1} << 31) - 1;

  /// New word k from old word k, word k+1 and word k+156 (mod 312),
  /// without the branch std takes on the low bit.
  static result_type twist(result_type word, result_type next,
                           result_type partner) noexcept {
    const result_type y = (word & ~kLowerMask) | (next & kLowerMask);
    return partner ^ (y >> 1) ^
           ((result_type{0} - (y & 1)) & 0xb5026f5aa96619e9ull);
  }

  /// Twists the next word of the first generation, seeding the initial
  /// words it reads first, or else the whole next generation.
  void refill() noexcept {
    if (ready_ < kN) {
      const std::uint32_t k = ready_++;
      const std::uint32_t seed_end = std::min(k + kM + 1, kN);
      if (seeded_ < seed_end) {
        // Each step needs the word before it. Carrying it in a register
        // keeps a store-to-load round trip out of this serial chain.
        result_type prev = x_[seeded_ - 1];
        for (std::uint32_t i = seeded_; i < seed_end; ++i) {
          prev = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
          x_[i] = prev;
        }
        seeded_ = seed_end;
      }
      x_[k] = twist(x_[k], x_[k + 1 == kN ? 0 : k + 1],
                    x_[k < kM ? k + kM : k - kM]);
      return;
    }
    for (std::uint32_t k = 0; k < kN - kM; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    }
    for (std::uint32_t k = kN - kM; k < kN - 1; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k - (kN - kM)]);
    }
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
    next_ = 0;
  }

  std::array<result_type, kN> x_{};
  std::uint32_t next_ = 0;    // next word to temper and return
  std::uint32_t ready_ = 0;   // words [0, ready_) hold this generation
  std::uint32_t seeded_ = 1;  // initial words [0, seeded_) are written
};

/// Deterministic PRNG over Mt19937_64 with the distribution helpers the
/// simulation needs. Cheap to create and to fork; fork streams are
/// independent.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(mix(seed)) {}

  /// Derive an independent substream. Deterministic in (parent seed, label).
  [[nodiscard]] Rng fork(std::string_view label) const;

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi) {
    require(lo <= hi, "uniform_int needs lo <= hi");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t uniform_index(std::size_t n) {
    require(n > 0, "uniform_index needs n > 0");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Lognormal with parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed).
  double pareto(double x_m, double alpha);

  /// Poisson with the given mean (>= 0). Hand-rolled (Knuth inversion over
  /// split means) rather than std::poisson_distribution: the std algorithm
  /// is implementation-defined (draws differ across standard libraries)
  /// and its setup calls lgamma, which writes libm's global `signgam` — a
  /// data race when sampling on executor workers.
  int poisson(double mean);

  /// Index drawn proportionally to non-negative weights. Requires at least
  /// one strictly positive weight.
  std::size_t weighted_index(std::span<const double> weights);

  /// Zipf-distributed rank in [0, n) with exponent s (rank 0 most popular).
  std::size_t zipf(std::size_t n, double s);

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

 private:
  static std::uint64_t mix(std::uint64_t x);

  std::uint64_t seed_ = 0;  // retained for fork()
  Mt19937_64 engine_;
};

}  // namespace acdn
