#include "stats/distribution.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace acdn {

void DistributionBuilder::add(double value, double weight) {
  require(weight >= 0.0, "distribution weight must be non-negative");
  samples_.push_back({value, weight});
  sorted_ = false;
}

void DistributionBuilder::add_all(std::span<const double> values) {
  samples_.reserve(samples_.size() + values.size());
  for (double v : values) samples_.push_back({v, 1.0});
  sorted_ = false;
}

void DistributionBuilder::merge(DistributionBuilder&& other) {
  if (samples_.empty()) {
    samples_ = std::move(other.samples_);
  } else {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }
  sorted_ = false;
  other.samples_.clear();
  other.sorted_ = false;
}

void DistributionBuilder::ensure_sorted() const {
  if (sorted_) return;
  std::sort(samples_.begin(), samples_.end(),
            [](const Sample& a, const Sample& b) { return a.value < b.value; });
  sorted_ = true;
}

double DistributionBuilder::total_weight() const {
  double total = 0.0;
  for (const Sample& s : samples_) total += s.weight;
  return total;
}

std::vector<DistPoint> DistributionBuilder::cdf() const {
  require(!samples_.empty(), "cdf of empty distribution");
  ensure_sorted();
  const double total = total_weight();
  require(total > 0.0, "cdf needs positive total weight");
  std::vector<DistPoint> out;
  double cum = 0.0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    cum += samples_[i].weight;
    // Emit one point per distinct value (the last occurrence).
    if (i + 1 == samples_.size() ||
        samples_[i + 1].value != samples_[i].value) {
      out.push_back({samples_[i].value, cum / total});
    }
  }
  return out;
}

std::vector<DistPoint> DistributionBuilder::ccdf() const {
  std::vector<DistPoint> points = cdf();
  for (DistPoint& p : points) p.y = 1.0 - p.y;
  return points;
}

std::vector<DistPoint> DistributionBuilder::cdf_at(
    std::span<const double> xs) const {
  std::vector<DistPoint> out;
  if (xs.empty()) return out;
  require(!samples_.empty(), "cdf_at of empty distribution");
  ensure_sorted();
  const double total = total_weight();
  require(total > 0.0, "distribution needs positive total weight");
  out.reserve(xs.size());
  // One forward cursor. fraction_at_most(x) takes the samples before the
  // first value > x, and that prefix only grows while x does not
  // decrease. Any other step (a smaller x, or a NaN on either side)
  // restarts from the first sample. Either way `cum` is the same prefix
  // sum in the same order, so each y is bit-identical to
  // fraction_at_most(x).
  std::size_t next = 0;
  double cum = 0.0;
  double prev = -std::numeric_limits<double>::infinity();
  for (double x : xs) {
    if (!(x >= prev)) {
      next = 0;
      cum = 0.0;
    }
    while (next < samples_.size() && !(samples_[next].value > x)) {
      cum += samples_[next].weight;
      ++next;
    }
    out.push_back({x, cum / total});
    prev = x;
  }
  return out;
}

std::vector<DistPoint> DistributionBuilder::ccdf_at(
    std::span<const double> xs) const {
  std::vector<DistPoint> out = cdf_at(xs);
  for (DistPoint& p : out) p.y = 1.0 - p.y;
  return out;
}

double DistributionBuilder::fraction_at_most(double x) const {
  require(!samples_.empty(), "fraction_at_most of empty distribution");
  ensure_sorted();
  const double total = total_weight();
  require(total > 0.0, "distribution needs positive total weight");
  double cum = 0.0;
  for (const Sample& s : samples_) {
    if (s.value > x) break;
    cum += s.weight;
  }
  return cum / total;
}

double DistributionBuilder::fraction_at_least(double x) const {
  require(!samples_.empty(), "fraction_at_least of empty distribution");
  ensure_sorted();
  const double total = total_weight();
  require(total > 0.0, "distribution needs positive total weight");
  double cum = 0.0;
  for (auto it = samples_.rbegin(); it != samples_.rend(); ++it) {
    if (it->value < x) break;
    cum += it->weight;
  }
  return cum / total;
}

double DistributionBuilder::quantile(double q) const {
  require(!samples_.empty(), "quantile of empty distribution");
  require(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  ensure_sorted();
  const double total = total_weight();
  require(total > 0.0, "distribution needs positive total weight");
  const double target = q * total;
  double cum = 0.0;
  for (const Sample& s : samples_) {
    cum += s.weight;
    if (cum >= target) return s.value;
  }
  return samples_.back().value;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0.0) {
  require(hi > lo, "histogram needs hi > lo");
  require(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double value, double weight) {
  const double span = hi_ - lo_;
  auto bin = static_cast<long>(
      std::floor((value - lo_) / span * static_cast<double>(counts_.size())));
  bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(bin)] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

void RunningStats::add(double value) {
  if (n_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++n_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (value - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace acdn
