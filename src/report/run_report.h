// Structured run manifest: one JSON file per pipeline run, written next to
// the CSV outputs, recording what ran (tool, config digest, seed, date
// range), what it produced (output paths), and what the metrics registry
// observed (counters, gauges, histograms, phase timings).
//
// The manifest is the machine-readable face of the observability layer: a
// rerun with the same config digest and seed must reproduce every counter
// in it exactly (wall-clock histograms, scheduling counts and phase
// timings excepted — those are environment, not simulation).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace acdn {

/// Fault-injection record for the manifest: the exact schedule that was
/// armed plus per-fail-point trigger counts. A chaos run is reproducible
/// from this section alone, and the trigger counts must equal the
/// "fault.fired.*" counters in the metrics snapshot — the chaos tests
/// pin that.
struct FaultInjectionRecord {
  bool armed = false;
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;
  std::map<std::string, std::uint64_t> trigger_counts;
  /// Degraded-pipeline staleness totals (see core/resilience.h).
  std::uint64_t stale_train_days = 0;
  std::uint64_t stale_eval_days = 0;

  /// Snapshot of the global FailPointRegistry (schedule + counts).
  /// Staleness fields are the caller's to fill in.
  static FaultInjectionRecord from_registry();
};

struct RunManifest {
  /// Which harness produced the run ("run_scenario", ...).
  std::string tool;
  /// ScenarioConfig::digest() — identifies the simulated world modulo seed.
  std::string config_digest;
  std::uint64_t seed = 0;
  int days = 0;
  std::string start_date;  // "2015-04-01"
  std::string end_date;    // inclusive last simulated day
  /// Paths of every artifact the run wrote (CSV figures, exports).
  std::vector<std::string> outputs;
  /// Registry snapshot taken after the last pipeline phase.
  MetricsSnapshot metrics;
  /// Fault schedule and trigger accounting ("armed": false when no fail
  /// point was armed).
  FaultInjectionRecord fault_injection;
};

/// The "fault_injection" manifest section rendered as standalone JSON
/// (2-space indent at `indent` levels). Exposed for golden-fragment
/// tests; write_run_manifest embeds exactly this text.
[[nodiscard]] std::string format_fault_injection(
    const FaultInjectionRecord& record, int indent);

/// Writes the manifest as pretty-printed JSON. Throws acdn::Error if the
/// file cannot be opened or any write fails (same contract as CsvWriter:
/// a full disk is an error, not a truncated manifest).
void write_run_manifest(const RunManifest& manifest,
                        const std::string& path);

/// Renders a snapshot as a human-readable summary table (the --metrics
/// output of run_scenario): counters, gauges, histogram quantiles,
/// scheduling counts and phase timings, each section name-sorted.
[[nodiscard]] std::string format_metrics_table(
    const MetricsSnapshot& snapshot);

}  // namespace acdn
