// Process-wide metrics registry: the observability substrate every layer
// reports through.
//
// Four metric kinds, all name-addressed:
//   * counters    — monotonically increasing integer totals (exact across
//                   threads: per-thread shards sum on snapshot);
//   * scheduling  — counters of how the executor's threads happened to
//                   interleave (work steals): summed like counters, but
//                   kept apart because no rerun has to reproduce them;
//   * gauges      — last-written double values (sizes, thread counts);
//   * histograms  — streaming latency/size distributions: count, sum,
//                   min, max plus P² p50/p75/p95/p99 (stats/p2.h), one
//                   estimator set per thread shard, merged on snapshot.
//
// Phase tracing: a PhaseSpan names a pipeline phase for its scope; nested
// spans extend the path ("sim.day/join"), and each span records wall-clock
// into per-path {count, total_ms, max_ms} stats. ScopedTimer is the
// histogram flavor: its scope's duration becomes one histogram sample.
//
// Cost model. Metrics are disabled by default: every entry point first
// checks one relaxed atomic (inlined below), so a disabled call site costs
// a load and a predictable branch — cheap enough for the hottest paths.
// Enabled updates touch only the calling thread's shard (one uncontended
// mutex plus a small-string hash lookup), mirroring the executor's
// shard-and-fold idiom: hot paths never share a cache line, snapshot()
// folds shards into deterministically (name-)ordered maps.
//
// Wall-clock timings and scheduling counts are observability, not
// simulation state: they are excluded from the determinism contract
// (everything else in a snapshot — counters, gauges, histogram counts — is
// reproducible for a fixed scenario; see tests/metrics_test.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace acdn {

namespace detail_metrics {
extern std::atomic<bool> g_enabled;
}  // namespace detail_metrics

/// Whether metric updates are recorded. Inline: this is the only cost a
/// disabled call site pays.
[[nodiscard]] inline bool metrics_enabled() {
  return detail_metrics::g_enabled.load(std::memory_order_relaxed);
}

/// Flips recording on or off process-wide. Off by default (library-first:
/// nothing measures unless a harness opts in).
void set_metrics_enabled(bool enabled);

/// Snapshot of one histogram.
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// P² estimates (exact below 5 samples per shard). When several thread
  /// shards contributed, the per-shard estimates merge by count-weighted
  /// average — an approximation fit for observability, not for analysis.
  double p50 = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / double(count);
  }
};

/// Snapshot of one phase path ("sim.day/join").
struct PhaseStats {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
};

/// Everything the registry knows, folded into name-sorted maps — the
/// deterministic iteration order the run manifest and summary table rely
/// on.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
  /// Thread-interleaving counts; outside the determinism contract, like
  /// `phases`.
  std::map<std::string, std::uint64_t> scheduling;
  std::map<std::string, PhaseStats> phases;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           scheduling.empty() && phases.empty();
  }
};

class MetricsRegistry {
 public:
  /// The process-wide registry. Never destroyed (leaky singleton), so
  /// worker threads and static teardown can never race its lifetime.
  [[nodiscard]] static MetricsRegistry& global();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the named counter (this thread's shard).
  void counter_add(std::string_view name, std::uint64_t delta = 1);

  /// Adds `delta` to the named scheduling counter (this thread's shard).
  void scheduling_add(std::string_view name, std::uint64_t delta = 1);

  /// Sets the named gauge. Last write wins across threads.
  void gauge_set(std::string_view name, double value);

  /// Folds one sample into the named histogram (this thread's shard).
  void observe(std::string_view name, double value);

  /// Adds one completed span to the named phase path.
  void record_phase(std::string_view path, double elapsed_ms);

  /// Folds every thread shard into name-sorted maps. Counters are exact
  /// sums; histogram quantiles merge by count-weighted average.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Clears all recorded values (shards stay allocated: pointers cached in
  /// thread-locals remain valid).
  void reset();

 private:
  struct Shard;
  struct Central;

  MetricsRegistry();
  ~MetricsRegistry() = delete;  // leaky by design

  [[nodiscard]] Shard& local_shard();

  Central* central_;
};

// ------------------------------------------------------------ free helpers
//
// The instrumentation entry points: inline the enabled check so a disabled
// call site never crosses a translation-unit boundary.

inline void metric_count(std::string_view name, std::uint64_t delta = 1) {
  if (metrics_enabled()) MetricsRegistry::global().counter_add(name, delta);
}

/// For counts that depend on thread interleaving, not on the simulation.
inline void metric_count_scheduling(std::string_view name,
                                    std::uint64_t delta = 1) {
  if (metrics_enabled()) MetricsRegistry::global().scheduling_add(name, delta);
}

inline void metric_gauge(std::string_view name, double value) {
  if (metrics_enabled()) MetricsRegistry::global().gauge_set(name, value);
}

inline void metric_observe(std::string_view name, double value) {
  if (metrics_enabled()) MetricsRegistry::global().observe(name, value);
}

/// RAII histogram sample: the scope's wall-clock duration in ms is folded
/// into the named histogram. `name` must outlive the timer (pass a
/// literal).
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name)
      : active_(metrics_enabled()), name_(name) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!active_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    MetricsRegistry::global().observe(
        name_, std::chrono::duration<double, std::milli>(elapsed).count());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  bool active_;
  std::string_view name_;
  std::chrono::steady_clock::time_point start_{};
};

/// RAII phase span. Spans nest per thread: a span opened while another is
/// live records under "outer/inner". The enabled decision is latched at
/// construction so a span closes consistently even if the flag flips
/// mid-scope.
///
/// The kRoot form starts a fresh path instead of nesting: whatever path
/// the thread carried is saved and restored when the span closes, and the
/// span's children record under "name/child" regardless of where the
/// scope runs. The cross-day pipeline opens its per-day analysis scope
/// this way — the same analysis may run inline on the driver thread (mid
/// day loop) or asynchronously on a pool worker, and without the root tag
/// those two placements would record under different (and, with
/// overlapping days, interleaved) nested paths.
class PhaseSpan {
 public:
  struct RootTag {};
  static constexpr RootTag kRoot{};

  explicit PhaseSpan(std::string_view name);
  PhaseSpan(std::string_view name, RootTag);
  ~PhaseSpan();

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  /// The calling thread's current phase path ("" outside any span).
  [[nodiscard]] static std::string current_path();

 private:
  bool active_;
  bool root_ = false;
  std::size_t parent_length_ = 0;
  /// Saved thread path, root spans only (restored on close).
  std::string saved_path_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace acdn
