#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/error.h"
#include "report/ascii_chart.h"
#include "report/run_report.h"
#include "report/series.h"
#include "report/shape_check.h"

namespace acdn {
namespace {

Series step_series() {
  return Series{"s", {{0.0, 0.1}, {10.0, 0.5}, {20.0, 1.0}}};
}

TEST(Series, StepInterpolation) {
  const Series s = step_series();
  EXPECT_DOUBLE_EQ(sample_series(s, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(sample_series(s, 0.0), 0.1);
  EXPECT_DOUBLE_EQ(sample_series(s, 9.9), 0.1);
  EXPECT_DOUBLE_EQ(sample_series(s, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(sample_series(s, 100.0), 1.0);
}

TEST(Figure, CsvExportHasHeaderAndUnionRows) {
  Figure fig("t", "x", "y");
  fig.add_series(step_series());
  fig.add_series(Series{"other", {{5.0, 0.2}}});
  const std::string path = ::testing::TempDir() + "acdn_fig_test.csv";
  fig.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,s,other");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 4);  // union of x: 0, 5, 10, 20
  std::remove(path.c_str());
}

TEST(AsciiChart, RendersSeriesAndLegend) {
  Figure fig("my chart", "ms", "cdf");
  fig.add_series(step_series());
  ChartOptions options;
  options.width = 40;
  options.height = 8;
  const std::string chart = render_chart(fig, options);
  EXPECT_NE(chart.find("my chart"), std::string::npos);
  EXPECT_NE(chart.find("[a] s"), std::string::npos);
  EXPECT_NE(chart.find('a'), std::string::npos);
}

TEST(AsciiChart, LogScaleHandlesWideRanges) {
  Figure fig("log", "km", "cdf");
  fig.add_series(Series{"d", {{64.0, 0.2}, {8192.0, 1.0}}});
  ChartOptions options;
  options.log_x = true;
  options.x_min = 64;
  options.x_max = 8192;
  EXPECT_FALSE(render_chart(fig, options).empty());
}

TEST(AsciiChart, RejectsTinyCanvas) {
  Figure fig("x", "x", "y");
  fig.add_series(step_series());
  ChartOptions options;
  options.width = 4;
  options.height = 2;
  EXPECT_THROW((void)render_chart(fig, options), ConfigError);
}

TEST(ShapeReport, PassAndFailAccounting) {
  ShapeReport report("test");
  report.check("in band", 5.0, 0.0, 10.0);
  report.note("just info", 42.0);
  EXPECT_TRUE(report.all_pass());
  report.check("out of band", 50.0, 0.0, 10.0);
  EXPECT_FALSE(report.all_pass());
  EXPECT_EQ(report.checks().size(), 3u);
  EXPECT_FALSE(report.print());
}

TEST(ShapeReport, BoundaryValuesPass) {
  ShapeReport report("boundaries");
  report.check("lower edge", 0.0, 0.0, 1.0);
  report.check("upper edge", 1.0, 0.0, 1.0);
  EXPECT_TRUE(report.all_pass());
}

// ------------------------------------------------------------ RunManifest

RunManifest sample_manifest() {
  RunManifest m;
  m.tool = "run_scenario";
  m.config_digest = "00aabbccddeeff11";
  m.seed = 42;
  m.days = 7;
  m.start_date = "2015-04-01";
  m.end_date = "2015-04-07";
  m.outputs = {"out_a.csv", "out_b.csv"};
  m.metrics.counters["sim.beacons"] = 1711;
  m.metrics.counters["join.orphan_dns"] = 103;
  m.metrics.gauges["dns.cache.size"] = 12.0;
  HistogramStats h;
  h.count = 3;
  h.sum = 6.0;
  h.min = 1.0;
  h.max = 3.0;
  h.p50 = 2.0;
  m.metrics.histograms["sim.day_ms"] = h;
  m.metrics.scheduling["executor.steals"] = 17;
  m.metrics.phases["sim.day/join"] = PhaseStats{3, 1.5, 0.6};
  return m;
}

TEST(RunManifest, WritesWellFormedJson) {
  const std::string path =
      ::testing::TempDir() + "acdn_manifest_test.json";
  write_run_manifest(sample_manifest(), path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Structural spot checks (no JSON parser in the test deps): key fields,
  // escaping-safe quoting, balanced braces.
  EXPECT_NE(text.find("\"tool\": \"run_scenario\""), std::string::npos);
  EXPECT_NE(text.find("\"config_digest\": \"00aabbccddeeff11\""),
            std::string::npos);
  EXPECT_NE(text.find("\"sim.beacons\": 1711"), std::string::npos);
  EXPECT_NE(text.find("\"out_b.csv\""), std::string::npos);
  EXPECT_NE(text.find("\"sim.day/join\""), std::string::npos);
  EXPECT_NE(text.find("\"scheduling\": {\n    \"executor.steals\": 17\n  },"),
            std::string::npos);
  const auto opens = std::count(text.begin(), text.end(), '{');
  const auto closes = std::count(text.begin(), text.end(), '}');
  EXPECT_EQ(opens, closes);
  std::remove(path.c_str());
}

TEST(RunManifest, ThrowsOnUnwritablePath) {
  EXPECT_THROW(write_run_manifest(sample_manifest(), "/nonexistent-dir/m.json"),
               Error);
}

TEST(RunManifest, TableRendersEverySection) {
  const std::string table = format_metrics_table(sample_manifest().metrics);
  EXPECT_NE(table.find("counters"), std::string::npos);
  EXPECT_NE(table.find("sim.beacons"), std::string::npos);
  EXPECT_NE(table.find("gauges"), std::string::npos);
  EXPECT_NE(table.find("histograms"), std::string::npos);
  EXPECT_NE(table.find("scheduling"), std::string::npos);
  EXPECT_NE(table.find("executor.steals"), std::string::npos);
  EXPECT_NE(table.find("phases"), std::string::npos);
  EXPECT_NE(table.find("sim.day/join"), std::string::npos);
  EXPECT_EQ(format_metrics_table(MetricsSnapshot{}),
            "(no metrics recorded)\n");
}

}  // namespace
}  // namespace acdn
