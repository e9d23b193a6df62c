#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "analysis/figures.h"
#include "common/error.h"
#include "common/rng.h"
#include "sim/simulation.h"
#include "sim/world.h"
#include "stats/distribution.h"
#include "stats/p2.h"
#include "stats/quantile.h"

namespace acdn {
namespace {

// --------------------------------------------------------------- quantile

TEST(Quantile, SingleValue) {
  const double v[] = {42.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 42.0);
}

TEST(Quantile, InterpolatesLinearly) {
  const double v[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
}

TEST(Quantile, UnsortedInputIsHandled) {
  const double v[] = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Quantile, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW((void)quantile(empty, 0.5), ConfigError);
  const double v[] = {1.0};
  EXPECT_THROW((void)quantile(v, 1.5), ConfigError);
}

TEST(Quantile, BatchMatchesSingle) {
  const double v[] = {9.0, 1.0, 7.0, 3.0, 5.0};
  const double qs[] = {0.25, 0.5, 0.75};
  const auto batch = quantiles(v, qs);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_DOUBLE_EQ(batch[0], quantile(v, 0.25));
  EXPECT_DOUBLE_EQ(batch[1], quantile(v, 0.5));
  EXPECT_DOUBLE_EQ(batch[2], quantile(v, 0.75));
}

TEST(WeightedQuantile, HeavyWeightDominates) {
  const double values[] = {1.0, 100.0};
  const double weights[] = {1.0, 99.0};
  EXPECT_DOUBLE_EQ(weighted_quantile(values, weights, 0.5), 100.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(values, weights, 0.005), 1.0);
}

TEST(WeightedQuantile, UniformWeightsMatchOrderStatistics) {
  const double values[] = {3.0, 1.0, 2.0};
  const double weights[] = {1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(weighted_quantile(values, weights, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(values, weights, 0.34), 2.0);
}

TEST(WeightedQuantile, RejectsMismatchedSizes) {
  const double values[] = {1.0, 2.0};
  const double weights[] = {1.0};
  EXPECT_THROW((void)weighted_quantile(values, weights, 0.5), ConfigError);
}

TEST(Stats, MeanStddevCov) {
  const double v[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stddev(v), 2.138, 0.001);
  EXPECT_NEAR(coefficient_of_variation(v), 2.138 / 5.0, 0.001);
}

// --------------------------------------------------------------------- P2

TEST(P2Quantile, ExactForFewSamples) {
  P2Quantile p2(0.5);
  p2.add(3.0);
  EXPECT_DOUBLE_EQ(p2.value(), 3.0);
  p2.add(1.0);
  EXPECT_DOUBLE_EQ(p2.value(), 2.0);
  p2.add(2.0);
  EXPECT_DOUBLE_EQ(p2.value(), 2.0);
}

TEST(P2Quantile, RejectsBadQuantile) {
  EXPECT_THROW(P2Quantile(0.0), ConfigError);
  EXPECT_THROW(P2Quantile(1.0), ConfigError);
}

TEST(P2Quantile, ValueWithoutSamplesThrows) {
  P2Quantile p2(0.5);
  EXPECT_THROW((void)p2.value(), ConfigError);
}

// Property sweep: the P2 estimate must track the exact quantile within a
// few percent of the distribution's scale for several (q, distribution)
// combinations. The test names print the raw bytes of P2Case, so it must
// have no padding: padding bytes are indeterminate and would make the names
// differ between builds.
struct P2Case {
  double q;
  std::int64_t distribution;  // 0 uniform, 1 lognormal, 2 exponential
};
static_assert(sizeof(P2Case) == sizeof(double) + sizeof(std::int64_t),
              "P2Case must have no padding bytes");

class P2Accuracy : public ::testing::TestWithParam<P2Case> {};

TEST_P(P2Accuracy, TracksExactQuantile) {
  const P2Case c = GetParam();
  Rng rng(1234 + c.distribution);
  P2Quantile p2(c.q);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    double x = 0.0;
    switch (c.distribution) {
      case 0: x = rng.uniform(0.0, 100.0); break;
      case 1: x = rng.lognormal(3.0, 0.5); break;
      default: x = rng.exponential(0.05); break;
    }
    p2.add(x);
    all.push_back(x);
  }
  const double exact = quantile(all, c.q);
  const double scale = quantile(all, 0.9) - quantile(all, 0.1);
  EXPECT_NEAR(p2.value(), exact, 0.05 * scale)
      << "q=" << c.q << " dist=" << c.distribution;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, P2Accuracy,
    ::testing::Values(P2Case{0.25, 0}, P2Case{0.5, 0}, P2Case{0.75, 0},
                      P2Case{0.25, 1}, P2Case{0.5, 1}, P2Case{0.9, 1},
                      P2Case{0.25, 2}, P2Case{0.5, 2}, P2Case{0.75, 2}));

// ---------------------------------------------------- DistributionBuilder

TEST(Distribution, CdfBasics) {
  DistributionBuilder b;
  b.add(1.0);
  b.add(2.0);
  b.add(2.0);
  b.add(10.0);
  const auto cdf = b.cdf();
  ASSERT_EQ(cdf.size(), 3u);  // distinct values
  EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].y, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].x, 2.0);
  EXPECT_DOUBLE_EQ(cdf[1].y, 0.75);
  EXPECT_DOUBLE_EQ(cdf[2].y, 1.0);
}

TEST(Distribution, CcdfComplementsCdf) {
  DistributionBuilder b;
  b.add_all(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  const auto cdf = b.cdf();
  const auto ccdf = b.ccdf();
  ASSERT_EQ(cdf.size(), ccdf.size());
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    EXPECT_DOUBLE_EQ(cdf[i].y + ccdf[i].y, 1.0);
  }
}

TEST(Distribution, WeightsShiftTheCdf) {
  DistributionBuilder b;
  b.add(0.0, 1.0);
  b.add(100.0, 3.0);
  EXPECT_DOUBLE_EQ(b.fraction_at_most(0.0), 0.25);
  EXPECT_DOUBLE_EQ(b.fraction_at_most(100.0), 1.0);
  EXPECT_DOUBLE_EQ(b.quantile(0.5), 100.0);
}

TEST(Distribution, FractionAtLeast) {
  DistributionBuilder b;
  b.add_all(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(b.fraction_at_least(3.0), 0.5);
  EXPECT_DOUBLE_EQ(b.fraction_at_least(5.0), 0.0);
  EXPECT_DOUBLE_EQ(b.fraction_at_least(0.0), 1.0);
}

TEST(Distribution, CdfAtFixedAxis) {
  DistributionBuilder b;
  b.add_all(std::vector<double>{10.0, 20.0, 30.0});
  const double xs[] = {5.0, 15.0, 25.0, 35.0};
  const auto pts = b.cdf_at(xs);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_DOUBLE_EQ(pts[0].y, 0.0);
  EXPECT_NEAR(pts[1].y, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(pts[2].y, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(pts[3].y, 1.0);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// cdf_at / ccdf_at against the per-point reference, bit for bit.
void expect_grid_matches_reference(const DistributionBuilder& b,
                                   std::span<const double> xs) {
  const std::vector<DistPoint> cdf = b.cdf_at(xs);
  const std::vector<DistPoint> ccdf = b.ccdf_at(xs);
  ASSERT_EQ(cdf.size(), xs.size());
  ASSERT_EQ(ccdf.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ref = b.fraction_at_most(xs[i]);
    ASSERT_EQ(bits(cdf[i].x), bits(xs[i])) << "point " << i;
    ASSERT_EQ(bits(ccdf[i].x), bits(xs[i])) << "point " << i;
    ASSERT_EQ(bits(cdf[i].y), bits(ref)) << "point " << i << " x=" << xs[i];
    ASSERT_EQ(bits(ccdf[i].y), bits(1.0 - ref))
        << "point " << i << " x=" << xs[i];
  }
}

TEST(Distribution, CdfAtMatchesPointwiseReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Rng rng(0xcdfa7ull);
  // Values on a coarse lattice so samples tie with each other and with
  // grid points; weights mix units, zeros and fractions so the prefix
  // sums round differently depending on the order they are added in.
  auto lattice = [&rng] { return 0.5 * rng.uniform_int(-40, 40); };
  for (int round = 0; round < 60; ++round) {
    DistributionBuilder b;
    const int n = rng.uniform_int(1, 400);
    for (int i = 0; i < n; ++i) {
      double value = lattice();
      const double pick = rng.uniform();
      if (pick < 0.03) value = -kInf;
      if (pick > 0.97) value = kInf;
      const int kind = rng.uniform_int(0, 3);
      const double weight = kind == 0   ? 1.0
                            : kind == 1 ? 0.0
                                        : rng.uniform(0.0, 3.0);
      b.add(value, weight);
    }
    b.add(lattice(), 1.0);  // positive total weight

    std::vector<double> ascending;
    for (int i = -84; i <= 84; ++i) ascending.push_back(0.25 * i);
    ascending.insert(ascending.begin(), -kInf);
    ascending.push_back(kInf);
    std::vector<double> descending(ascending.rbegin(), ascending.rend());
    std::vector<double> unsorted;
    for (int i = 0; i < 200; ++i) {
      const double pick = rng.uniform();
      unsorted.push_back(pick < 0.05   ? kNaN
                         : pick < 0.08 ? kInf
                         : pick < 0.11 ? -kInf
                         : pick < 0.5  ? lattice()
                                       : rng.uniform(-22.0, 22.0));
    }
    // Ascending with duplicates and NaN/inf points spliced in.
    std::vector<double> spliced = ascending;
    for (int i = 0; i < 20; ++i) {
      const std::size_t at = rng.uniform_index(spliced.size());
      const double point = i % 4 == 0   ? kNaN
                           : i % 4 == 1 ? spliced[at]
                           : i % 4 == 2 ? kInf
                                        : -kInf;
      spliced.insert(spliced.begin() + static_cast<std::ptrdiff_t>(at), point);
    }
    expect_grid_matches_reference(b, ascending);
    expect_grid_matches_reference(b, descending);
    expect_grid_matches_reference(b, unsorted);
    expect_grid_matches_reference(b, spliced);
  }
}

TEST(Distribution, CdfAtEdgeContract) {
  const double xs[] = {0.0, 1.0};
  DistributionBuilder empty;
  EXPECT_TRUE(empty.cdf_at({}).empty());
  EXPECT_TRUE(empty.ccdf_at({}).empty());
  EXPECT_THROW((void)empty.cdf_at(xs), ConfigError);
  EXPECT_THROW((void)empty.ccdf_at(xs), ConfigError);

  DistributionBuilder weightless;
  weightless.add(0.5, 0.0);
  weightless.add(1.5, 0.0);
  EXPECT_TRUE(weightless.cdf_at({}).empty());
  EXPECT_THROW((void)weightless.cdf_at(xs), ConfigError);
  EXPECT_THROW((void)weightless.ccdf_at(xs), ConfigError);
}

TEST(Distribution, Fig3GridMatchesPointwiseReference) {
  World world(ScenarioConfig::small_test());
  Simulation sim(world);
  sim.run_days(2);
  std::vector<BeaconMeasurement> all;
  for (DayIndex d = 0; d < 2; ++d) {
    const auto day = sim.measurements().by_day(d);
    all.insert(all.end(), day.begin(), day.end());
  }
  std::vector<double> xs;
  for (int x = 0; x <= 300; ++x) xs.push_back(double(x));
  for (const std::optional<Region> region :
       {std::optional<Region>{}, std::optional<Region>{Region::kEurope}}) {
    const DistributionBuilder diff =
        fig3_anycast_minus_best_unicast(all, world.clients(), region);
    ASSERT_FALSE(diff.empty());
    expect_grid_matches_reference(diff, xs);
  }
}

TEST(Distribution, EmptyThrows) {
  DistributionBuilder b;
  EXPECT_THROW((void)b.cdf(), ConfigError);
  EXPECT_THROW((void)b.quantile(0.5), ConfigError);
}

TEST(Distribution, NegativeWeightRejected) {
  DistributionBuilder b;
  EXPECT_THROW(b.add(1.0, -0.5), ConfigError);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(9.9);    // bin 4
  h.add(-5.0);   // clamped to bin 0
  h.add(100.0);  // clamped to bin 4
  h.add(5.0);    // bin 2
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);
  EXPECT_DOUBLE_EQ(h.count(4), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(2), 6.0);
}

TEST(Histogram, RejectsDegenerateRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ConfigError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ConfigError);
}

// ----------------------------------------------------------- RunningStats

TEST(RunningStats, MatchesBatchComputation) {
  RunningStats rs;
  const double v[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : v) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), mean(v));
  EXPECT_NEAR(rs.stddev(), stddev(v), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, VarianceOfFewSamplesIsZero) {
  RunningStats rs;
  rs.add(5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

}  // namespace
}  // namespace acdn
