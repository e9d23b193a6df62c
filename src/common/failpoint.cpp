#include "common/failpoint.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"
#include "common/error.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"

namespace acdn {

namespace {

// Sorted so known_fail_points() doubles as the registry's index order.
constexpr std::array<std::string_view, 7> kKnownPoints = {
    "beacon/http_fetch",  // per-target HTTP fetch of a beacon plan
    "beacon/store",       // joined measurement ingestion (k-way merge)
    "bgp/session",        // CDN-facing BGP session reset (intra-day flap)
    "bgp/withdrawal",     // day-long withdrawal of a unit's best route
    "cdn/front_end",      // whole-front-end outage for a day
    "csv/write",          // figure CSV / manifest writer I/O error
    "dns/resolve",        // LDNS resolution (timeout / SERVFAIL / log loss)
};

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// SplitMix64 finalizer — the same mixer Rng uses for seed whitening.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::optional<std::size_t> point_index(std::string_view path) {
  const auto it =
      std::lower_bound(kKnownPoints.begin(), kKnownPoints.end(), path);
  if (it == kKnownPoints.end() || *it != path) return std::nullopt;
  return static_cast<std::size_t>(it - kKnownPoints.begin());
}

/// Uniform [0, 1) from the top 53 bits of a mixed hash of the decision
/// coordinates. Pure function: no stream state, so thread count and call
/// order cannot change any decision.
double decision_unit(std::uint64_t seed, std::size_t point, DayIndex day,
                     std::uint64_t coordinate) {
  std::uint64_t x = seed ^ mix(static_cast<std::uint64_t>(point) + 1);
  x ^= mix(static_cast<std::uint64_t>(day) + 0x5851f42d4c957f2dull);
  x ^= mix(coordinate + 0x14057b7ef767814full);
  return static_cast<double>(mix(x) >> 11) * 0x1.0p-53;
}

bool windows_overlap(const FaultRule& a, const FaultRule& b) {
  const auto closes_before = [](const FaultRule& x, const FaultRule& y) {
    return x.last_day != kFaultWindowOpen && x.last_day < y.first_day;
  };
  return !closes_before(a, b) && !closes_before(b, a);
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kError:
      return "error";
  }
  return "?";  // unreachable
}

FaultKind parse_fault_kind(std::string_view text) {
  if (text == "drop") return FaultKind::kDrop;
  if (text == "delay") return FaultKind::kDelay;
  if (text == "corrupt") return FaultKind::kCorrupt;
  if (text == "error") return FaultKind::kError;
  throw ConfigError("unknown fault kind: " + std::string(text));
}

std::span<const std::string_view> known_fail_points() {
  return kKnownPoints;
}

void FaultSchedule::validate() const {
  for (const FaultRule& rule : rules) {
    if (!point_index(rule.point).has_value()) {
      throw ConfigError("fault rule names unknown fail point: " + rule.point);
    }
    if (!(std::isfinite(rule.probability) && rule.probability >= 0.0 &&
          rule.probability <= 1.0)) {
      throw ConfigError("fault probability must be in [0, 1]: " + rule.point);
    }
    if (rule.first_day < 0) {
      throw ConfigError("fault window first_day must be >= 0: " + rule.point);
    }
    if (rule.last_day != kFaultWindowOpen && rule.last_day < rule.first_day) {
      throw ConfigError("fault window is empty (last_day < first_day): " +
                        rule.point);
    }
    if (!(std::isfinite(rule.magnitude) && rule.magnitude >= 0.0)) {
      throw ConfigError("fault magnitude must be finite and >= 0: " +
                        rule.point);
    }
    if ((rule.kind == FaultKind::kDelay || rule.kind == FaultKind::kCorrupt) &&
        !(rule.magnitude > 0.0)) {
      throw ConfigError("delay/corrupt fault needs a positive magnitude: " +
                        rule.point);
    }
  }
  // At most one rule may govern a (point, day) pair; otherwise which rule
  // wins would depend on rule order, which is too easy to get wrong in a
  // hand-written schedule.
  for (std::size_t i = 0; i < rules.size(); ++i) {
    for (std::size_t j = i + 1; j < rules.size(); ++j) {
      if (rules[i].point != rules[j].point) continue;
      if (windows_overlap(rules[i], rules[j])) {
        throw ConfigError("overlapping fault windows for point: " +
                          rules[i].point);
      }
    }
  }
}

namespace detail {
std::atomic<bool> g_fail_points_armed{false};
}  // namespace detail

FailPointRegistry& FailPointRegistry::global() {
  static FailPointRegistry* instance = new FailPointRegistry();  // leaked
  return *instance;
}

FailPointRegistry::FailPointRegistry()
    : rules_by_point_(kKnownPoints.size()),
      fired_(kKnownPoints.size()) {
  metric_names_.reserve(kKnownPoints.size());
  for (const std::string_view point : kKnownPoints) {
    metric_names_.push_back("fault.fired." + std::string(point));
  }
  for (auto& count : fired_) count.store(0, std::memory_order_relaxed);
}

void FailPointRegistry::arm(const FaultSchedule& schedule) {
  schedule.validate();
  bool armed = false;
  {
    WriterMutexLock lock(state_mutex_);
    for (auto& per_point : rules_by_point_) per_point.clear();
    for (auto& count : fired_) count.store(0, std::memory_order_relaxed);
    schedule_ = schedule;
    for (const FaultRule& rule : schedule.rules) {
      const auto idx = point_index(rule.point);
      ACDN_CHECK(idx.has_value()) << "validated rule has unknown point";
      rules_by_point_[*idx].push_back(rule);
    }
    for (auto& per_point : rules_by_point_) {
      std::sort(per_point.begin(), per_point.end(),
                [](const FaultRule& a, const FaultRule& b) {
                  return a.first_day < b.first_day;
                });
    }
    armed = !schedule_.rules.empty();
  }
  detail::g_fail_points_armed.store(armed, std::memory_order_relaxed);
}

void FailPointRegistry::disarm() {
  detail::g_fail_points_armed.store(false, std::memory_order_relaxed);
  WriterMutexLock lock(state_mutex_);
  schedule_ = FaultSchedule{};
  for (auto& per_point : rules_by_point_) per_point.clear();
  for (auto& count : fired_) count.store(0, std::memory_order_relaxed);
}

FaultSchedule FailPointRegistry::schedule() const {
  ReaderMutexLock lock(state_mutex_);
  return schedule_;
}

std::map<std::string, std::uint64_t> FailPointRegistry::trigger_counts()
    const {
  std::map<std::string, std::uint64_t> counts;
  for (std::size_t i = 0; i < kKnownPoints.size(); ++i) {
    counts.emplace(std::string(kKnownPoints[i]),
                   fired_[i].load(std::memory_order_relaxed));
  }
  return counts;
}

std::uint64_t FailPointRegistry::total_triggered() const {
  std::uint64_t total = 0;
  for (const auto& count : fired_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

std::optional<Fault> FailPointRegistry::evaluate(std::size_t point_index,
                                                 DayIndex day,
                                                 std::uint64_t coordinate) {
  ReaderMutexLock lock(state_mutex_);
  ACDN_DCHECK(point_index < rules_by_point_.size()) << "point index range";
  for (const FaultRule& rule : rules_by_point_[point_index]) {
    if (day < rule.first_day) break;  // sorted by first_day; disjoint
    if (rule.last_day != kFaultWindowOpen && day > rule.last_day) continue;
    if (decision_unit(schedule_.seed, point_index, day, coordinate) >=
        rule.probability) {
      return std::nullopt;
    }
    fired_[point_index].fetch_add(1, std::memory_order_relaxed);
    metric_count(metric_names_[point_index]);
    return Fault{rule.kind, rule.magnitude};
  }
  return std::nullopt;
}

FailPoint::FailPoint(std::string_view path) {
  const auto idx = point_index(path);
  ACDN_CHECK(idx.has_value()) << "unknown fail point path: " << path;
  index_ = *idx;
  // Touch the registry so the singleton exists before any fire() from
  // executor workers.
  (void)FailPointRegistry::global();
}

std::uint64_t fault_coordinate(std::string_view text) { return fnv1a(text); }

}  // namespace acdn
