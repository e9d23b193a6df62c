#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "analysis/figures.h"
#include "core/evaluator.h"
#include "core/predictor.h"
#include "report/export.h"
#include "report/series.h"
#include "sim/simulation.h"
#include "sim/world.h"
#include "test_fixtures.h"

namespace acdn {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(Export, PassiveLogRoundTrip) {
  PassiveLog log;
  log.add({ClientId(1), FrontEndId(2), 0, 10.5});
  log.add({ClientId(3), FrontEndId(0), 1, 0.25});
  log.add({ClientId(1), FrontEndId(2), 1, 99.0});

  const std::string path = temp_path("acdn_passive.csv");
  export_passive_log(log, path);
  const PassiveLog restored = import_passive_log(path);

  ASSERT_EQ(restored.days(), log.days());
  ASSERT_EQ(restored.total(), log.total());
  for (DayIndex d = 0; d < log.days(); ++d) {
    const auto original = log.by_day(d);
    const auto copy = restored.by_day(d);
    ASSERT_EQ(original.size(), copy.size()) << d;
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(copy[i].client, original[i].client);
      EXPECT_EQ(copy[i].front_end, original[i].front_end);
      EXPECT_EQ(copy[i].day, original[i].day);
      EXPECT_DOUBLE_EQ(copy[i].queries, original[i].queries);
    }
  }
  std::remove(path.c_str());
}

TEST(Export, MeasurementsRoundTrip) {
  MeasurementStore store;
  store.add(testfx::make_measurement(1, 10, 0, 25.5,
                                     {{0, 40.0}, {2, 18.25}}));
  store.add(testfx::make_measurement(2, 11, 1, 12.0, {{1, 30.0}}));

  const std::string path = temp_path("acdn_measurements.csv");
  export_measurements(store, path);
  const MeasurementStore restored = import_measurements(path);

  ASSERT_EQ(restored.total(), store.total());
  ASSERT_EQ(restored.days(), store.days());
  for (DayIndex d = 0; d < store.days(); ++d) {
    const auto original = store.by_day(d);
    const auto copy = restored.by_day(d);
    ASSERT_EQ(original.size(), copy.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(copy[i].beacon_id, original[i].beacon_id);
      EXPECT_EQ(copy[i].client, original[i].client);
      EXPECT_EQ(copy[i].ldns, original[i].ldns);
      ASSERT_EQ(copy[i].targets.size(), original[i].targets.size());
      for (std::size_t t = 0; t < copy[i].targets.size(); ++t) {
        EXPECT_EQ(copy[i].targets[t].anycast, original[i].targets[t].anycast);
        EXPECT_EQ(copy[i].targets[t].front_end,
                  original[i].targets[t].front_end);
        EXPECT_DOUBLE_EQ(copy[i].targets[t].rtt_ms,
                         original[i].targets[t].rtt_ms);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Export, SimulatedDayRoundTripsLosslessly) {
  World world(ScenarioConfig::small_test());
  Simulation sim(world);
  sim.run_days(1);

  const std::string path = temp_path("acdn_simday.csv");
  export_measurements(sim.measurements(), path);
  const MeasurementStore restored = import_measurements(path);
  EXPECT_EQ(restored.total(), sim.measurements().total());

  // Figure analyses on the restored store match the originals.
  const auto original = daily_improvement(sim.measurements().by_day(0),
                                          Fig5Config{});
  const auto copy = daily_improvement(restored.by_day(0), Fig5Config{});
  ASSERT_EQ(original.size(), copy.size());
  for (const auto& [group, value] : original) {
    EXPECT_DOUBLE_EQ(copy.at(group), value) << group;
  }
  std::remove(path.c_str());
}

// -------------------------------------------------------- golden figures
//
// Small-world renditions of the fig01 / fig03 / fig09 pipelines, digested
// with FNV-1a 64. The checked-in digests pin the exported CSV bytes: a
// change in simulation, analysis, or CSV formatting shows up here, and the
// serial-vs-parallel comparison proves the executor's determinism contract
// all the way to the exported artifact.

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string render_csv(const Figure& figure, const char* name) {
  const std::string path = temp_path(name);
  figure.write_csv(path);
  std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

/// small_test with a fault schedule attached — the differential tests
/// arm every fail point at probability zero and expect golden bytes.
ScenarioConfig small_test_with(const FaultSchedule& faults) {
  ScenarioConfig config = ScenarioConfig::small_test();
  config.faults = faults;
  return config;
}

std::string fig01_csv(int threads, const FaultSchedule& faults = {}) {
  World world(small_test_with(faults));
  Rng rng = world.fork_rng("fig1");
  constexpr int kRounds = 3;
  std::vector<std::vector<Milliseconds>> per_client;
  per_client.reserve(world.clients().size());
  for (const Client24& client : world.clients().clients()) {
    std::vector<Milliseconds> best;
    for (int round = 0; round < kRounds; ++round) {
      const SimTime when{0, 3600.0 * (2 + 4 * round)};
      const auto sample =
          world.beacon().measure_all_candidates(client, when, rng);
      if (best.empty()) {
        best = sample;
      } else {
        for (std::size_t i = 0; i < best.size(); ++i) {
          best[i] = std::min(best[i], sample[i]);
        }
      }
    }
    per_client.push_back(std::move(best));
  }
  const int ns[] = {1, 3, 5};
  const auto cdfs = fig1_min_latency_by_pool_size(per_client, ns, threads);
  Figure figure("fig01 golden", "min_latency_ms", "CDF of /24s");
  for (std::size_t i = 0; i < cdfs.size(); ++i) {
    figure.add_series(
        Series{std::to_string(ns[i]) + " front-ends", cdfs[i].cdf()});
  }
  return render_csv(figure, "acdn_fig01_golden.csv");
}

std::string fig03_csv(int threads, const FaultSchedule& faults = {}) {
  World world(small_test_with(faults));
  Simulation sim(world);
  sim.run_days(2);
  std::vector<BeaconMeasurement> all;
  for (DayIndex d = 0; d < 2; ++d) {
    const auto day = sim.measurements().by_day(d);
    all.insert(all.end(), day.begin(), day.end());
  }
  const DistributionBuilder world_d = fig3_anycast_minus_best_unicast(
      all, world.clients(), std::nullopt, threads);
  const DistributionBuilder europe = fig3_anycast_minus_best_unicast(
      all, world.clients(), Region::kEurope, threads);
  const double xs[] = {0, 10, 25, 50, 100};
  Figure figure("fig03 golden", "difference_ms", "CCDF of requests");
  figure.add_series(Series{"World", world_d.ccdf_at(xs)});
  figure.add_series(Series{"Europe", europe.ccdf_at(xs)});
  return render_csv(figure, "acdn_fig03_golden.csv");
}

std::string fig09_csv(int threads, const FaultSchedule& faults = {}) {
  ScenarioConfig config = small_test_with(faults);
  config.schedule.beacon_sampling = 0.15;
  World world(config);
  Simulation sim(world);
  sim.run_days(2);

  PredictionEvaluator::Config eval_config;
  eval_config.epsilon_ms = 0.0;
  eval_config.min_eval_samples = 1;
  eval_config.threads = threads;
  const PredictionEvaluator evaluator(world.clients(), world.ldns(),
                                      eval_config);
  Figure figure("fig09 golden", "improvement_ms", "CDF of weighted /24s");
  for (Grouping grouping : {Grouping::kEcsPrefix, Grouping::kLdns}) {
    PredictorConfig pc;
    pc.metric = PredictionMetric::kP25;
    pc.min_measurements = 1;
    pc.grouping = grouping;
    pc.threads = threads;
    HistoryPredictor predictor(pc);
    predictor.train(sim.measurements().by_day(0));
    const auto outcomes =
        evaluator.evaluate(predictor, sim.measurements().by_day(1));
    const EvalSummary summary = evaluator.summarize(outcomes);
    if (!summary.improvement_p50.empty()) {
      figure.add_series(Series{std::string(to_string(grouping)) + " p50",
                               summary.improvement_p50.cdf()});
    }
  }
  return render_csv(figure, "acdn_fig09_golden.csv");
}

TEST(GoldenFigures, Fig01SerialParallelAndDigestAgree) {
  const std::string serial = fig01_csv(1);
  const std::string parallel = fig01_csv(7);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(fnv1a64(serial), 0x19aa0673cd067cd4ull);
}

TEST(GoldenFigures, Fig03SerialParallelAndDigestAgree) {
  const std::string serial = fig03_csv(1);
  const std::string parallel = fig03_csv(7);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(fnv1a64(serial), 0xde0b818736d362f4ull);
}

TEST(GoldenFigures, Fig09SerialParallelAndDigestAgree) {
  const std::string serial = fig09_csv(1);
  const std::string parallel = fig09_csv(7);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(fnv1a64(serial), 0x58a16c56097e98caull);
}

TEST(GoldenFigures, ArmedAtZeroProbabilityIsByteIdenticalToDisarmed) {
  // Differential guarantee of the fault-injection layer: arming every
  // known fail point at p = 0.0 walks all the armed code paths (site-up
  // checks, per-fetch and per-row decisions, writer checks) yet changes
  // no decision and consumes no randomness — the exported figure bytes
  // must match the disarmed golden digests exactly.
  FaultSchedule zero;
  zero.seed = 0xd1ffull;
  for (const std::string_view point : known_fail_points()) {
    zero.rules.push_back({std::string(point), FaultKind::kDrop, 0.0, 0,
                          kFaultWindowOpen, 0.0});
  }
  EXPECT_EQ(fnv1a64(fig01_csv(3, zero)), 0x19aa0673cd067cd4ull);
  EXPECT_EQ(fnv1a64(fig03_csv(3, zero)), 0xde0b818736d362f4ull);
  EXPECT_EQ(fnv1a64(fig09_csv(3, zero)), 0x58a16c56097e98caull);
  FailPointRegistry::global().disarm();
}

// ------------------------------------------------------ output byte identity
//
// The exporters, the figure row walk and the writer's buffer spills are
// pinned byte for byte: a faster output path must write the same files.

TEST(Export, ExportDigestsArePinned) {
  World world(ScenarioConfig::small_test());
  Simulation sim(world);
  sim.run_days(3);
  const std::string measurements = temp_path("acdn_pinned_measurements.csv");
  const std::string passive = temp_path("acdn_pinned_passive.csv");
  export_measurements(sim.measurements(), measurements);
  export_passive_log(sim.passive(), passive);
  EXPECT_EQ(fnv1a64(slurp(measurements)), 0x5ea33b42537c9a87ull);
  EXPECT_EQ(fnv1a64(slurp(passive)), 0xe3af461926177159ull);
  std::remove(measurements.c_str());
  std::remove(passive.c_str());
}

/// Unsorted points, duplicate x values and a series that starts after the
/// first union x: every cell is sample_series at the row's x.
Figure walk_figure() {
  Figure figure("walk", "x", "y");
  figure.add_series(
      Series{"unsorted", {{3, 0.3}, {1, 0.1}, {2, 0.2}, {2, 0.25}, {5, 0.5}}});
  figure.add_series(Series{"late", {{4, 1.0}, {6, 2.0}}});
  figure.add_series(Series{"dups", {{1, 0.5}, {1, 0.6}, {6, 0.9}}});
  return figure;
}

TEST(Export, FigureCsvStepSamplesUnsortedSeries) {
  const Figure figure = walk_figure();
  const std::string csv = render_csv(figure, "acdn_walk.csv");
  EXPECT_EQ(csv,
            "x,unsorted,late,dups\n"
            "1,0,0,0.6\n"
            "2,0,0,0.6\n"
            "3,0.25,0,0.6\n"
            "4,0.25,1,0.6\n"
            "5,0.5,1,0.6\n"
            "6,0.5,2,0.9\n");
  std::istringstream rows(csv);
  std::string line;
  std::getline(rows, line);  // header
  while (std::getline(rows, line)) {
    std::istringstream cells(line);
    std::string cell;
    std::getline(cells, cell, ',');
    const double x = std::stod(cell);
    for (const Series& s : figure.series()) {
      std::getline(cells, cell, ',');
      EXPECT_EQ(std::stod(cell), sample_series(s, x)) << s.name << " @" << x;
    }
  }
}

TEST(Export, FigureTableStepSamplesUnsortedSeries) {
  ::testing::internal::CaptureStdout();
  walk_figure().print_table();
  EXPECT_EQ(fnv1a64(::testing::internal::GetCapturedStdout()),
            0xea7bbe94082345d6ull);
}

TEST(Export, FigureCsvUnionKeepsFirstOfEqualXs) {
  // -0.0 and 0.0 are one union x; the first series to give it decides
  // its text.
  const Series neg{"neg", {{-0.0, 0.5}, {1.0, 0.75}}};
  const Series pos{"pos", {{0.0, 0.25}}};
  Figure neg_first("zeros", "x", "y");
  neg_first.add_series(neg);
  neg_first.add_series(pos);
  EXPECT_EQ(render_csv(neg_first, "acdn_neg_zero.csv"),
            "x,neg,pos\n-0,0.5,0.25\n1,0.75,0.25\n");
  Figure pos_first("zeros", "x", "y");
  pos_first.add_series(pos);
  pos_first.add_series(neg);
  EXPECT_EQ(render_csv(pos_first, "acdn_pos_zero.csv"),
            "x,pos,neg\n0,0.25,0.5\n1,0.25,0.75\n");
}

TEST(Export, CsvRowLargerThanOneSpill) {
  // A quoted 3 MiB field, with quotes and separators at its ends and near
  // its 1 MiB marks, overruns the writer's buffer several times in one
  // row.
  std::string big(std::size_t(3) << 20, 'a');
  for (std::size_t at : {std::size_t(0), (std::size_t(1) << 20) - 1,
                         std::size_t(1) << 20, (std::size_t(2) << 20) + 7,
                         big.size() - 1}) {
    big[at] = at % 2 == 0 ? '"' : ',';
  }
  std::string escaped;
  for (char c : big) {
    if (c == '"') escaped += '"';
    escaped += c;
  }
  const std::string path = temp_path("acdn_big_row.csv");
  {
    CsvWriter csv(path);
    csv.write_header({"h1", "h2"});
    const std::vector<std::string> row{"head", big, "tail"};
    csv.write_row(row);
    const double tail[] = {1.5, -2.0};
    csv.write_row(tail);
    csv.flush();
  }
  EXPECT_EQ(slurp(path), "h1,h2\nhead,\"" + escaped + "\",tail\n1.5,-2\n");
  std::remove(path.c_str());
}

TEST(Export, CsvDestructorWritesUnflushedTail) {
  // Several buffers' worth of rows and no flush(): the destructor must
  // still write out whatever is buffered.
  const std::string path = temp_path("acdn_unflushed.csv");
  {
    CsvWriter csv(path);
    for (int i = 0; i < 200000; ++i) {
      const double row[] = {double(i), i * 0.1, -1.0 / (i + 1)};
      csv.write_row(row);
    }
  }
  const std::string bytes = slurp(path);
  EXPECT_GT(bytes.size(), std::size_t(4) << 20);
  EXPECT_EQ(fnv1a64(bytes), 0xc4ae9f05e6a705c2ull);
  std::remove(path.c_str());
}

TEST(Export, CsvDiskFullSurfacesFromSpillBeforeFlush) {
  // /dev/full opens fine and fails every write with ENOSPC. Far more than
  // one buffer of rows: the failure must surface from a write_row spill,
  // with flush() never reached.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  CsvWriter csv("/dev/full");
  const auto write_rows = [&csv] {
    const double row[] = {1.0, 2.0, 3.0};
    for (int i = 0; i < 1000000; ++i) csv.write_row(row);
  };
  EXPECT_THROW(write_rows(), Error);
}

// ------------------------------------------------------ number formatting

std::string to_chars_text(double v) {
  char buf[64];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Compares format_number with std::to_chars byte for byte; counts the
/// values whose text differs and reports the first few.
class ToCharsComparison {
 public:
  void check(double v) {
    char want[64];
    char got[CsvWriter::kMaxNumberChars];
    const char* want_end = std::to_chars(want, want + sizeof(want), v).ptr;
    const char* got_end = CsvWriter::format_number(got, v);
    const std::string_view expected(want, std::size_t(want_end - want));
    const std::string_view actual(got, std::size_t(got_end - got));
    if (expected == actual) return;
    if (++mismatches_ <= 10) {
      ADD_FAILURE() << "format_number wrote '" << actual
                    << "' where to_chars writes '" << expected << "'";
    }
  }
  void check_both_signs(double v) {
    check(v);
    check(-v);
  }
  [[nodiscard]] int mismatches() const { return mismatches_; }

 private:
  int mismatches_ = 0;
};

TEST(Export, FormatNumberMatchesToChars) {
  ToCharsComparison cmp;
  // Every small whole number, as ids, days and counts are.
  for (int i = -1000000; i <= 1000000; ++i) cmp.check(double(i));
  // k * 10^j on both sides of the five-trailing-zero threshold: f/e ties
  // (10000, 1200000) and e strictly shorter (100000, 70369280000000).
  double power = 1.0;
  for (int j = 0; j <= 15; ++j, power *= 10.0) {
    for (int k = 1; k < 10000; ++k) cmp.check_both_signs(k * power);
  }
  // Around the bound: below it the integral digits; from it on to_chars.
  constexpr double two53 = 9007199254740992.0;
  for (double v : {two53 - 1, two53, two53 + 2}) cmp.check_both_signs(v);
  // Random whole numbers below 2^53, also with trailing zeros, and whole
  // numbers up to 2^64 near multiples of 10^j: from 2^59 on, to_chars'
  // shortest digits for some of them are no longer the integer's own
  // (620197696971000064 is "6.20197696971e+17").
  std::mt19937_64 rng(20150401);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t whole = rng() >> 11;
    cmp.check_both_signs(double(whole));
    std::uint64_t scale = 1;
    for (int z = int(rng() % 16); z > 0; --z) scale *= 10;
    cmp.check_both_signs(double(whole / scale * scale));
    cmp.check_both_signs(double((rng() >> (rng() % 11)) / scale * scale));
  }
  cmp.check_both_signs(0.0);
  cmp.check_both_signs(std::numeric_limits<double>::infinity());
  cmp.check_both_signs(std::numeric_limits<double>::quiet_NaN());
  // Random bit patterns: fractions, subnormals, huge exponents.
  for (int i = 0; i < 200000; ++i) cmp.check(std::bit_cast<double>(rng()));
  EXPECT_EQ(cmp.mismatches(), 0);
}

TEST(Export, NumericRowLargerThanOneSpill) {
  // Three rows of 50,000 mixed values, each longer than the writer's
  // buffer, through the shared-prefix overload: the spills inside a row
  // must not change a byte.
  std::mt19937_64 rng(7);
  std::vector<double> values(50000);
  const std::string path = temp_path("acdn_numeric_rows.csv");
  std::string expected;
  {
    CsvWriter csv(path);
    for (const std::string_view leading : {"7.036928e+13,1", "", "-0"}) {
      // Ids, signed whole numbers up to 2^53 and arbitrary doubles (most
      // of them 22-24 characters long).
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i % 16 == 0) {
          values[i] = double(rng() % 4096);
        } else if (i % 4 == 0) {
          values[i] = double(rng() >> 11) * (i % 8 == 0 ? 1.0 : -1.0);
        } else {
          values[i] = std::bit_cast<double>(rng());
        }
      }
      std::string row(leading);
      for (double v : values) {
        if (!row.empty()) row += ',';
        row += to_chars_text(v);
      }
      ASSERT_GT(row.size(), CsvWriter::kBufferBytes);
      expected += row + '\n';
      csv.write_row(leading, values);
    }
    csv.flush();
  }
  EXPECT_EQ(slurp(path), expected);
  std::remove(path.c_str());
}

// ------------------------------------------------------- integer id fields

std::uint64_t day_one_id_of_client_511() {
  return (std::uint64_t(1) << 46) + 511 * (std::uint64_t(1) << 20);
}

TEST(Export, ImportAcceptsDoubleFormIds) {
  // 2^46 + 511 * 2^20 = 70369280000000: to_chars(double) spells it
  // 7.036928e+13, and the pinned digests keep that spelling.
  MeasurementStore store;
  BeaconMeasurement m =
      testfx::make_measurement(511, 3, 1, 20.0, {{4, 31.5}});
  m.beacon_id = day_one_id_of_client_511();
  store.add(m);
  const std::string path = temp_path("acdn_double_form_id.csv");
  export_measurements(store, path);
  EXPECT_NE(slurp(path).find("\n7.036928e+13,1,"), std::string::npos);

  const MeasurementStore restored = import_measurements(path);
  ASSERT_EQ(restored.total(), 1u);
  const auto day = restored.by_day(1);
  ASSERT_EQ(day.size(), 1u);
  EXPECT_EQ(day[0].beacon_id, day_one_id_of_client_511());
  EXPECT_EQ(day[0].client, ClientId(511));
  EXPECT_EQ(day[0].targets.size(), 2u);
  std::remove(path.c_str());
}

TEST(Export, IdsPastTwoToThe53ExportAsExactDigits) {
  // Day-130 ids exceed 2^53. A double holds only every other one of
  // these, so they go out as digits: two adjacent ids stay two beacons.
  const std::uint64_t base = (std::uint64_t(130) << 46) + 12344;
  ASSERT_EQ(base, 9147936743108664ull);
  MeasurementStore store;
  for (std::uint64_t id : {base, base + 1}) {
    BeaconMeasurement m = testfx::make_measurement(
        0, 1, 130, 10.0 + double(id - base), {{2, 40.0}});
    m.beacon_id = id;
    store.add(m);
  }
  const std::string path = temp_path("acdn_exact_ids.csv");
  export_measurements(store, path);
  const std::string bytes = slurp(path);
  EXPECT_NE(bytes.find("\n9147936743108664,130,"), std::string::npos);
  EXPECT_NE(bytes.find("\n9147936743108665,130,"), std::string::npos);

  const MeasurementStore restored = import_measurements(path);
  const auto day = restored.by_day(130);
  ASSERT_EQ(day.size(), 2u);
  EXPECT_EQ(day[0].beacon_id, base);
  EXPECT_EQ(day[1].beacon_id, base + 1);
  EXPECT_EQ(day[0].targets.size(), 2u);
  EXPECT_EQ(day[1].targets.size(), 2u);
  EXPECT_EQ(day[1].targets[0].rtt_ms, 11.0);
  std::remove(path.c_str());
}

TEST(Export, ImportRejectsInexactIntegerFields) {
  const std::string path = temp_path("acdn_bad_ints.csv");
  for (const char* client :
       {"1.5", "-1", "1e300", "inf", "nan", "7.0369280000000001e+13",
        "1.8014398509481984e+16", "0x10", ""}) {
    {
      std::ofstream out(path);
      out << "day,client,front_end,queries\n0," << client << ",2,4\n";
    }
    EXPECT_THROW((void)import_passive_log(path), Error) << client;
  }
  {
    std::ofstream out(path);
    out << "day,client,front_end,queries\n0,1e+05,2,4\n";
  }
  const PassiveLog log = import_passive_log(path);
  ASSERT_EQ(log.total(), 1u);
  EXPECT_EQ(log.by_day(0)[0].client, ClientId(100000));
  std::remove(path.c_str());
}

TEST(Export, ImportRejectsMalformedInput) {
  const std::string path = temp_path("acdn_bad.csv");
  {
    std::ofstream out(path);
    out << "day,client,front_end,queries\n1,2,notanumber,4\n";
  }
  EXPECT_THROW((void)import_passive_log(path), Error);
  {
    std::ofstream out(path);
    out << "wrong,header\n";
  }
  EXPECT_THROW((void)import_passive_log(path), Error);
  EXPECT_THROW((void)import_measurements(path), Error);
  EXPECT_THROW((void)import_passive_log("/nonexistent/file.csv"), Error);
  // Double fields take only the writer's own text: no leading space, no
  // '+' sign, no hex float, whatever the C library would accept.
  for (const char* bad : {" 1.5", "+1.5", "0x1p3"}) {
    {
      std::ofstream out(path);
      out << "day,client,front_end,queries\n0,1,2," << bad << "\n";
    }
    EXPECT_THROW((void)import_passive_log(path), Error) << "queries " << bad;
    {
      std::ofstream out(path);
      out << "beacon_id,day,hour,client,ldns,anycast,front_end,rtt_ms\n"
          << "1,0," << bad << ",2,3,1,0,20\n";
    }
    EXPECT_THROW((void)import_measurements(path), Error) << "hour " << bad;
    {
      std::ofstream out(path);
      out << "beacon_id,day,hour,client,ldns,anycast,front_end,rtt_ms\n"
          << "1,0,1.5,2,3,1,0," << bad << "\n";
    }
    EXPECT_THROW((void)import_measurements(path), Error) << "rtt_ms " << bad;
  }
  // The writer's text for the smallest subnormal reads back exactly.
  {
    std::ofstream out(path);
    out << "day,client,front_end,queries\n0,1,2,5e-324\n";
  }
  const PassiveLog tiny = import_passive_log(path);
  ASSERT_EQ(tiny.total(), 1u);
  EXPECT_EQ(tiny.by_day(0)[0].queries,
            std::numeric_limits<double>::denorm_min());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace acdn
