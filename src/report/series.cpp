#include "report/series.h"

#include <algorithm>
#include <cstdio>

#include "common/csv.h"

namespace acdn {

double sample_series(const Series& series, double x) {
  double y = 0.0;
  for (const DistPoint& p : series.points) {
    if (p.x > x) break;
    y = p.y;
  }
  return y;
}

namespace {

/// The sorted distinct x values of all series. Of equal values the first
/// inserted is kept (a stable sort, then unique), so an x given as -0.0
/// before 0.0 prints as "-0".
std::vector<double> union_xs(const std::vector<Series>& series) {
  std::size_t points = 0;
  for (const Series& s : series) points += s.points.size();
  std::vector<double> xs;
  xs.reserve(points);
  for (const Series& s : series) {
    for (const DistPoint& p : s.points) xs.push_back(p.x);
  }
  std::stable_sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  return xs;
}

/// Calls `emit(row)` once per union x, ascending, with row = {x, value of
/// each series at x}. Each value equals sample_series(series, x), found by
/// a forward cursor per series instead of a scan per cell: the first
/// point with p.x > x never moves left as x grows — every point before it
/// has p.x <= the previous x — even when a series is unsorted. Cost is
/// O(X·S + P) rather than O(X·P).
template <typename EmitFn>
void walk_rows(const std::vector<Series>& series, EmitFn&& emit) {
  std::vector<std::size_t> cursor(series.size(), 0);
  std::vector<double> row(series.size() + 1);
  for (double x : union_xs(series)) {
    row[0] = x;
    for (std::size_t s = 0; s < series.size(); ++s) {
      const std::vector<DistPoint>& points = series[s].points;
      std::size_t& next = cursor[s];
      while (next < points.size() && !(points[next].x > x)) ++next;
      row[s + 1] = next == 0 ? 0.0 : points[next - 1].y;
    }
    emit(row);
  }
}

}  // namespace

void Figure::print_table() const {
  std::printf("== %s ==\n", title_.c_str());
  std::printf("%-12s", x_label_.c_str());
  for (const Series& s : series_) std::printf("  %16s", s.name.c_str());
  std::printf("\n");
  walk_rows(series_, [](const std::vector<double>& row) {
    std::printf("%-12.4g", row[0]);
    for (std::size_t i = 1; i < row.size(); ++i) {
      std::printf("  %16.4f", row[i]);
    }
    std::printf("\n");
  });
}

void Figure::write_csv(const std::string& path) const {
  CsvWriter csv(path);
  std::vector<std::string> header{x_label_};
  for (const Series& s : series_) header.push_back(s.name);
  csv.write_row(header);
  walk_rows(series_,
            [&](const std::vector<double>& row) { csv.write_row(row); });
  csv.flush();
}

}  // namespace acdn
