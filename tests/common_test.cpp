#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <type_traits>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/sim_clock.h"

namespace acdn {
namespace {

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng a(99);
  Rng fork_before = a.fork("stream");
  // Consuming from the parent must not change what the fork produces.
  for (int i = 0; i < 10; ++i) a.next_u64();
  Rng fork_after = a.fork("stream");
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fork_before.next_u64(), fork_after.next_u64());
  }
}

TEST(Rng, ForkLabelsProduceDistinctStreams) {
  Rng a(99);
  Rng f1 = a.fork("one");
  Rng f2 = a.fork("two");
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(10.0, 20.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 20.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(1, 4));
  EXPECT_EQ(seen, (std::set<int>{1, 2, 3, 4}));
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(7);
  const double weights[] = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 6000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);  // 3x weight -> more picks
  // Roughly 1:3.
  EXPECT_NEAR(double(counts[2]) / counts[1], 3.0, 0.7);
}

TEST(Rng, WeightedIndexRejectsZeroTotal) {
  Rng rng(7);
  const double weights[] = {0.0, 0.0};
  EXPECT_THROW((void)rng.weighted_index(weights), ConfigError);
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(11);
  int first = 0, last = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::size_t r = rng.zipf(50, 1.0);
    ASSERT_LT(r, 50u);
    if (r == 0) ++first;
    if (r == 49) ++last;
  }
  EXPECT_GT(first, 10 * std::max(1, last));
}

TEST(Rng, ParetoIsAtLeastScale) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, ParetoRejectsBadParameters) {
  Rng rng(13);
  EXPECT_THROW((void)rng.pareto(0.0, 1.0), ConfigError);
  EXPECT_THROW((void)rng.pareto(1.0, -1.0), ConfigError);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(17);
  EXPECT_THROW((void)rng.uniform_int(5, 4), ConfigError);
  // The check runs before any draw: the stream is where it started.
  EXPECT_EQ(rng.next_u64(), Rng(17).next_u64());
  EXPECT_EQ(Rng(17).uniform_int(4, 4), 4);
}

TEST(Rng, UniformIndexRejectsEmptyRange) {
  Rng rng(19);
  EXPECT_THROW((void)rng.uniform_index(0), ConfigError);
  EXPECT_EQ(rng.next_u64(), Rng(19).next_u64());
  EXPECT_EQ(Rng(19).uniform_index(1), 0u);
}

// Raw bits of draws from every helper, in a fixed order.
std::vector<std::uint64_t> draw_every_helper(Rng rng) {
  std::vector<std::uint64_t> bits;
  bits.push_back(rng.next_u64());
  bits.push_back(std::bit_cast<std::uint64_t>(rng.uniform()));
  bits.push_back(std::bit_cast<std::uint64_t>(rng.uniform(-3.0, 7.5)));
  bits.push_back(static_cast<std::uint64_t>(rng.uniform_int(-1000, 50)));
  bits.push_back(rng.uniform_index(1000003));
  std::uint64_t coins = 0;
  for (int i = 0; i < 16; ++i) {
    coins = coins << 1 | (rng.bernoulli(0.3) ? 1u : 0u);
  }
  bits.push_back(coins);
  bits.push_back(std::bit_cast<std::uint64_t>(rng.normal(10.0, 2.5)));
  bits.push_back(std::bit_cast<std::uint64_t>(rng.lognormal(3.0, 0.4)));
  bits.push_back(std::bit_cast<std::uint64_t>(rng.exponential(0.5)));
  bits.push_back(std::bit_cast<std::uint64_t>(rng.pareto(0.5, 1.2)));
  bits.push_back(static_cast<std::uint64_t>(rng.poisson(4.5)));
  bits.push_back(static_cast<std::uint64_t>(rng.poisson(75.25)));
  const double weights[] = {0.5, 0.0, 2.0, 1.5};
  bits.push_back(rng.weighted_index(weights));
  bits.push_back(rng.zipf(50, 1.0));
  std::vector<int> deck(10);
  std::iota(deck.begin(), deck.end(), 0);
  rng.shuffle(deck);
  std::uint64_t order = 0;
  for (int card : deck) order = order << 4 | static_cast<std::uint64_t>(card);
  bits.push_back(order);
  return bits;
}

TEST(Rng, PinnedDraws) {
  // Recorded from the std::mt19937_64-backed Rng. Any change to the
  // engine, a helper's draw order or a std distribution shows here first,
  // apart from the simulation digests.
  const std::vector<std::uint64_t> root = {
      0x79b5bc5d4cc7b088ull,  // next_u64
      0x3febf343fed7e756ull,  // uniform()
      0x401cdc88c614a662ull,  // uniform(-3, 7.5)
      0xfffffffffffffe33ull,  // uniform_int(-1000, 50) == -461
      0x000000000001b32eull,  // uniform_index
      0x000000000000182eull,  // 16 x bernoulli(0.3)
      0x4027be9924fdef33ull,  // normal
      0x4032b232259e58a7ull,  // lognormal
      0x3fe9404314c15fcfull,  // exponential
      0x3fe4b309c0d52a0dull,  // pareto
      0x0000000000000002ull,  // poisson(4.5)
      0x000000000000005dull,  // poisson(75.25), split at 32
      0x0000000000000003ull,  // weighted_index
      0x000000000000001dull,  // zipf
      0x0000004572390861ull,  // shuffle of 0..9, one hex digit per card
  };
  const std::vector<std::uint64_t> forked = {
      0xc6110bdf720bd04eull, 0x3fe3d14d0f879acaull, 0x401dcf8f7ffbe988ull,
      0xfffffffffffffdefull, 0x000000000005fb5dull, 0x0000000000000074ull,
      0x402b77c0def0f3fcull, 0x40434f071f1bd64full, 0x3ff0f63fbd4700a7ull,
      0x3fe085bd84b4e6cbull, 0x0000000000000007ull, 0x000000000000004full,
      0x0000000000000002ull, 0x0000000000000005ull, 0x0000000419763258ull,
  };
  EXPECT_EQ(draw_every_helper(Rng(123)), root);
  EXPECT_EQ(draw_every_helper(Rng(123).fork("pinned")), forked);
}

// ----------------------------------------------------------- Mt19937_64

static_assert(std::is_same_v<Mt19937_64::result_type,
                             std::mt19937_64::result_type>);
static_assert(Mt19937_64::min() == std::mt19937_64::min());
static_assert(Mt19937_64::max() == std::mt19937_64::max());
static_assert(std::uniform_random_bit_generator<Mt19937_64>);

// Stream lengths around the lazy first generation's boundaries (156
// words seeded ahead, 311 reads new words, 312 words per generation) and
// the full generations after it.
constexpr std::array<std::size_t, 12> kStreamLengths = {
    1, 155, 156, 157, 310, 311, 312, 313, 623, 624, 625, 5000};

// Draws `length` words from fresh engines of both kinds; true if equal.
::testing::AssertionResult matches_std(std::uint64_t seed,
                                       std::size_t length) {
  Mt19937_64 lazy(seed);
  std::mt19937_64 reference(seed);
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint64_t want = reference();
    const std::uint64_t got = lazy();
    if (got != want) {
      return ::testing::AssertionFailure()
             << "seed " << seed << " word " << i << ": " << got
             << " != " << want;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Mt19937_64, MatchesStdWordForWord) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                                   ~std::uint64_t{0}}) {
    for (const std::size_t length : kStreamLengths) {
      EXPECT_TRUE(matches_std(seed, length));
    }
  }
  std::mt19937_64 seeds(20151028);
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(
        matches_std(seeds(), kStreamLengths[i % kStreamLengths.size()]));
  }
}

TEST(Mt19937_64, CopiesContinueIdentically) {
  for (const std::size_t drawn : {0u, 1u, 155u, 156u, 311u, 312u}) {
    SCOPED_TRACE(drawn);
    Mt19937_64 original(0x5eedull + drawn);
    std::mt19937_64 reference(0x5eedull + drawn);
    for (std::size_t i = 0; i < drawn; ++i) {
      ASSERT_EQ(original(), reference());
    }
    Mt19937_64 copy = original;
    for (std::size_t i = 0; i < 700; ++i) {
      const std::uint64_t want = reference();
      ASSERT_EQ(original(), want) << "original, word " << drawn + i;
      ASSERT_EQ(copy(), want) << "copy, word " << drawn + i;
    }
  }
}

// -------------------------------------------------------------- Calendar

TEST(Calendar, April2015StartsOnWednesday) {
  // The paper's passive data set begins April 1, 2015.
  EXPECT_EQ(Date({2015, 4, 1}).weekday(), Weekday::kWednesday);
}

TEST(Calendar, KnownWeekdays) {
  EXPECT_EQ(Date({1970, 1, 1}).weekday(), Weekday::kThursday);
  EXPECT_EQ(Date({2000, 1, 1}).weekday(), Weekday::kSaturday);
  EXPECT_EQ(Date({2015, 10, 28}).weekday(), Weekday::kWednesday);  // IMC'15
}

TEST(Calendar, PlusDaysCrossesMonthAndYear) {
  EXPECT_EQ(Date({2015, 4, 30}).plus_days(1), (Date{2015, 5, 1}));
  EXPECT_EQ(Date({2015, 12, 31}).plus_days(1), (Date{2016, 1, 1}));
  EXPECT_EQ(Date({2016, 2, 28}).plus_days(1), (Date{2016, 2, 29}));  // leap
  EXPECT_EQ(Date({2015, 2, 28}).plus_days(1), (Date{2015, 3, 1}));
}

TEST(Calendar, RoundTripThroughEpochDays) {
  const Date d{2015, 4, 15};
  EXPECT_EQ(civil_from_days(days_from_civil(d)), d);
}

TEST(Calendar, SimCalendarWeekendDetection) {
  SimCalendar cal;  // starts Wed 2015-04-01
  EXPECT_FALSE(cal.is_weekend(0));  // Wed
  EXPECT_FALSE(cal.is_weekend(2));  // Fri
  EXPECT_TRUE(cal.is_weekend(3));   // Sat
  EXPECT_TRUE(cal.is_weekend(4));   // Sun
  EXPECT_FALSE(cal.is_weekend(5));  // Mon
}

TEST(Calendar, DateFormatting) {
  EXPECT_EQ(Date({2015, 4, 1}).to_string(), "2015-04-01");
}

TEST(SimTime, HourOfDay) {
  EXPECT_DOUBLE_EQ((SimTime{3, 7200.0}).hour_of_day(), 2.0);
}

// ------------------------------------------------------------------- CSV

TEST(Csv, WritesRowsAndQuotesSpecials) {
  const std::string path = ::testing::TempDir() + "acdn_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_header({"a", "b,comma", "c\"quote"});
    const double row[] = {1.5, -2.0, 0.25};
    csv.write_row(row);
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,comma\",\"c\"\"quote\"");
  EXPECT_EQ(line2, "1.5,-2,0.25");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), Error);
}

TEST(Csv, SurfacesWriteFailureInsteadOfTruncating) {
  // Regression: only the open was checked, so running out of disk left a
  // truncated CSV behind a success exit. /dev/full opens fine but fails
  // every flushed write with ENOSPC — the writer must throw, not return.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";

  const auto write_until_failure = [] {
    CsvWriter csv("/dev/full");
    const double row[] = {1.0, 2.0, 3.0};
    // Enough rows to overflow the stream buffer even if flush() were
    // never reached; either path must end in a throw.
    for (int i = 0; i < 100000; ++i) csv.write_row(row);
    csv.flush();
  };
  EXPECT_THROW(write_until_failure(), Error);
}

}  // namespace
}  // namespace acdn
