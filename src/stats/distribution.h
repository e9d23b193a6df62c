// Empirical distribution builders: CDF/CCDF series and histograms.
//
// Every figure in the paper is a CDF or CCDF over some population ( /24s,
// requests, front-end changes), often weighted by query volume. These
// builders turn raw (value, weight) samples into plot-ready (x, y) series.
#pragma once

#include <span>
#include <vector>

namespace acdn {

/// One point of an empirical distribution function.
struct DistPoint {
  double x = 0.0;
  double y = 0.0;  // cumulative fraction in [0, 1]
};

/// Collects weighted samples and renders CDF / CCDF series.
class DistributionBuilder {
 public:
  void add(double value, double weight = 1.0);
  void add_all(std::span<const double> values);

  /// Appends another builder's samples in their insertion order — the
  /// combine step of deterministic sharded reductions: folding shards in
  /// chunk order reproduces the serial insertion sequence exactly.
  void merge(DistributionBuilder&& other);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double total_weight() const;

  /// Full empirical CDF: one point per distinct sample value, y = fraction
  /// of weight with value <= x.
  [[nodiscard]] std::vector<DistPoint> cdf() const;

  /// CCDF: y = fraction of weight with value > x.
  [[nodiscard]] std::vector<DistPoint> ccdf() const;

  /// CDF evaluated at caller-chosen x positions (for fixed figure axes).
  /// Sorts once and walks the sorted samples once with a forward cursor:
  /// linear in samples plus grid points for an ascending grid. Any grid
  /// order is accepted (a point below its predecessor, or a NaN, restarts
  /// the walk). Each y is bit-identical to fraction_at_most(x) — the
  /// cursor adds the same weights in the same order — and ccdf_at's is
  /// 1.0 minus that. An empty grid returns an empty vector; otherwise an
  /// empty builder or zero total weight throws ConfigError.
  [[nodiscard]] std::vector<DistPoint> cdf_at(std::span<const double> xs) const;
  [[nodiscard]] std::vector<DistPoint> ccdf_at(std::span<const double> xs) const;

  /// Fraction of weight with value <= x. One full walk per call; the
  /// reference cdf_at is tested against.
  [[nodiscard]] double fraction_at_most(double x) const;
  /// Fraction of weight with value >= x.
  [[nodiscard]] double fraction_at_least(double x) const;

  /// Weighted quantile of the collected samples.
  [[nodiscard]] double quantile(double q) const;

 private:
  struct Sample {
    double value;
    double weight;
  };
  // Sorted lazily; mutable so const accessors can sort once.
  mutable std::vector<Sample> samples_;
  mutable bool sorted_ = false;

  void ensure_sorted() const;
};

/// Fixed-bin histogram over [lo, hi) with out-of-range samples clamped to
/// the edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value, double weight = 1.0);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] double count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double total() const { return total_; }

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double value);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const;  // sample variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace acdn
