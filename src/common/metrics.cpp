#include "common/metrics.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "stats/p2.h"

namespace acdn {

namespace detail_metrics {
std::atomic<bool> g_enabled{false};
}  // namespace detail_metrics

void set_metrics_enabled(bool enabled) {
  detail_metrics::g_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

/// Heterogeneous string hashing: shard maps are keyed by std::string but
/// looked up by string_view without allocating.
struct StringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  [[nodiscard]] std::size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(std::string_view(s));
  }
};

/// One histogram's per-shard state: moment sums plus the four P²
/// estimators the snapshot reports.
struct ShardHistogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  P2Quantile p50{0.50};
  P2Quantile p75{0.75};
  P2Quantile p95{0.95};
  P2Quantile p99{0.99};

  void add(double v) {
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    p50.add(v);
    p75.add(v);
    p95.add(v);
    p99.add(v);
  }
};

template <typename V>
// NOLINT-ACDN(unordered-decl): hot-path accumulation map; every iteration
using NameMap = std::unordered_map<std::string, V, StringHash,
                                   std::equal_to<>>;
// over a NameMap folds into the name-sorted MetricsSnapshot maps, so hash
// order never reaches output (see snapshot()).

/// Merge one shard's histogram into the snapshot entry. Quantiles merge
/// by count-weighted average of the per-shard estimates.
void fold_histogram(HistogramStats& out, const ShardHistogram& shard) {
  if (shard.count == 0) return;
  const double w_old = double(out.count);
  const double w_new = double(shard.count);
  const double w_total = w_old + w_new;
  auto weighted = [&](double acc, double estimate) {
    return (acc * w_old + estimate * w_new) / w_total;
  };
  if (out.count == 0) {
    out.min = shard.min;
    out.max = shard.max;
    out.p50 = shard.p50.value();
    out.p75 = shard.p75.value();
    out.p95 = shard.p95.value();
    out.p99 = shard.p99.value();
  } else {
    out.min = std::min(out.min, shard.min);
    out.max = std::max(out.max, shard.max);
    out.p50 = weighted(out.p50, shard.p50.value());
    out.p75 = weighted(out.p75, shard.p75.value());
    out.p95 = weighted(out.p95, shard.p95.value());
    out.p99 = weighted(out.p99, shard.p99.value());
  }
  out.count += shard.count;
  out.sum += shard.sum;
}

}  // namespace

/// Per-thread metric storage. The owning thread updates under its own
/// (virtually always uncontended) mutex; snapshot() and reset() take the
/// same mutex from outside, which is what makes concurrent snapshots
/// race-free. Shards are never deallocated, so the thread_local pointer
/// cache below stays valid for the life of the process.
struct MetricsRegistry::Shard {
  Mutex m;
  NameMap<std::uint64_t> counters ACDN_GUARDED_BY(m);
  NameMap<std::uint64_t> scheduling ACDN_GUARDED_BY(m);
  NameMap<ShardHistogram> histograms ACDN_GUARDED_BY(m);
};

/// Registry internals: rarely-touched state under one mutex (gauge and
/// phase updates are per-pass, not per-item) plus the shard list. Lock
/// order where both are held: Central::m before Shard::m (snapshot,
/// reset); update paths hold exactly one.
struct MetricsRegistry::Central {
  Mutex m;
  std::vector<std::unique_ptr<Shard>> shards ACDN_GUARDED_BY(m);
  NameMap<double> gauges ACDN_GUARDED_BY(m);
  NameMap<PhaseStats> phases ACDN_GUARDED_BY(m);
};

MetricsRegistry::MetricsRegistry() : central_(new Central) {}

MetricsRegistry& MetricsRegistry::global() {
  // Leaky: never destroyed, so executor workers finishing during static
  // teardown can still record safely.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  thread_local Shard* cached = nullptr;
  if (cached == nullptr) {
    auto shard = std::make_unique<Shard>();
    cached = shard.get();
    MutexLock lock(central_->m);
    central_->shards.push_back(std::move(shard));
  }
  return *cached;
}

namespace {

void add_count(NameMap<std::uint64_t>& counts, std::string_view name,
               std::uint64_t delta) {
  auto it = counts.find(name);
  if (it == counts.end()) {
    counts.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

}  // namespace

void MetricsRegistry::counter_add(std::string_view name,
                                  std::uint64_t delta) {
  Shard& shard = local_shard();
  MutexLock lock(shard.m);
  add_count(shard.counters, name, delta);
}

void MetricsRegistry::scheduling_add(std::string_view name,
                                     std::uint64_t delta) {
  Shard& shard = local_shard();
  MutexLock lock(shard.m);
  add_count(shard.scheduling, name, delta);
}

void MetricsRegistry::gauge_set(std::string_view name, double value) {
  MutexLock lock(central_->m);
  auto it = central_->gauges.find(name);
  if (it == central_->gauges.end()) {
    central_->gauges.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::observe(std::string_view name, double value) {
  Shard& shard = local_shard();
  MutexLock lock(shard.m);
  auto it = shard.histograms.find(name);
  if (it == shard.histograms.end()) {
    it = shard.histograms.emplace(std::string(name), ShardHistogram{})
             .first;
  }
  it->second.add(value);
}

void MetricsRegistry::record_phase(std::string_view path,
                                   double elapsed_ms) {
  MutexLock lock(central_->m);
  auto it = central_->phases.find(path);
  if (it == central_->phases.end()) {
    it = central_->phases.emplace(std::string(path), PhaseStats{}).first;
  }
  PhaseStats& stats = it->second;
  ++stats.count;
  stats.total_ms += elapsed_ms;
  stats.max_ms = std::max(stats.max_ms, elapsed_ms);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Every loop below folds into the name-keyed std::maps of the snapshot:
  // insertion order cannot affect the result, so hash-order visits are
  // safe here and nowhere past this point.
  MetricsSnapshot out;
  MutexLock lock(central_->m);
  // NOLINT-ACDN(unordered-iter): folded into name-sorted snapshot map
  for (const auto& [name, value] : central_->gauges) {
    out.gauges.emplace(name, value);
  }
  // NOLINT-ACDN(unordered-iter): folded into name-sorted snapshot map
  for (const auto& [path, stats] : central_->phases) {
    out.phases.emplace(path, stats);
  }
  for (const auto& shard : central_->shards) {
    MutexLock shard_lock(shard->m);
    // NOLINT-ACDN(unordered-iter): += into name-sorted map, commutative
    for (const auto& [name, value] : shard->counters) {
      out.counters[name] += value;
    }
    // NOLINT-ACDN(unordered-iter): += into name-sorted map, commutative
    for (const auto& [name, value] : shard->scheduling) {
      out.scheduling[name] += value;
    }
    // NOLINT-ACDN(unordered-iter): count-weighted fold is shard-symmetric
    for (const auto& [name, hist] : shard->histograms) {
      fold_histogram(out.histograms[name], hist);
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  MutexLock lock(central_->m);
  central_->gauges.clear();
  central_->phases.clear();
  for (const auto& shard : central_->shards) {
    MutexLock shard_lock(shard->m);
    shard->counters.clear();
    shard->scheduling.clear();
    shard->histograms.clear();
  }
}

// --------------------------------------------------------------- PhaseSpan

namespace {

/// The calling thread's phase path; spans append "/name" on entry and
/// truncate back on exit.
thread_local std::string t_phase_path;

}  // namespace

PhaseSpan::PhaseSpan(std::string_view name) : active_(metrics_enabled()) {
  if (!active_) return;
  parent_length_ = t_phase_path.size();
  if (!t_phase_path.empty()) t_phase_path += '/';
  t_phase_path += name;
  start_ = std::chrono::steady_clock::now();
}

PhaseSpan::PhaseSpan(std::string_view name, RootTag)
    : active_(metrics_enabled()), root_(true) {
  if (!active_) return;
  saved_path_ = std::move(t_phase_path);
  t_phase_path.assign(name);
  start_ = std::chrono::steady_clock::now();
}

PhaseSpan::~PhaseSpan() {
  if (!active_) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  MetricsRegistry::global().record_phase(
      t_phase_path,
      std::chrono::duration<double, std::milli>(elapsed).count());
  if (root_) {
    t_phase_path = std::move(saved_path_);
  } else {
    t_phase_path.resize(parent_length_);
  }
}

std::string PhaseSpan::current_path() { return t_phase_path; }

}  // namespace acdn
