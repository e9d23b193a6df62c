#include "sim/pipeline.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/error.h"
#include "common/executor.h"
#include "common/metrics.h"

namespace acdn {

/// One in-flight day. Every member is slot-local: the analysis task may
/// run on any pool worker while the driver thread executes later kernels,
/// so nothing here is shared until fold() — which runs after task.join()
/// and therefore after every write below has been published through the
/// batch mutex.
struct ScenarioPipeline::DaySlot {
  DayIndex day = 0;
  DayStats stats;
  /// Kernel output, merged in client order; capacity persists across the
  /// days this slot serves.
  std::vector<DnsLogEntry> dns_log;
  std::vector<HttpLogEntry> http_log;
  /// Slot-local join destination; fold() moves the finished day into the
  /// scenario store (take_day/put_day).
  MeasurementStore store;
  /// Slot-local aggregation scratch — the per-slot half of the arena
  /// double buffering. Two in-flight days never touch the same arena, and
  /// the lease guard (common/arena.h) enforces it.
  ScratchArena arena;
  FlatMap<std::uint32_t, Milliseconds> improvements;
  TaskHandle task;
  bool in_flight = false;
};

ScenarioPipeline::ScenarioPipeline(Simulation& sim, PipelineOptions options)
    : sim_(&sim), options_(std::move(options)) {
  require(options_.window >= 0, "pipeline window must be non-negative");
  if (options_.predictor) trainer_.emplace(*options_.predictor);
  const std::size_t ring =
      static_cast<std::size_t>(std::max(1, options_.window));
  slots_.reserve(ring);
  for (std::size_t i = 0; i < ring; ++i) {
    slots_.push_back(std::make_unique<DaySlot>());
  }
}

// Out of line: DaySlot is incomplete in the header. The member TaskHandle
// destructors wait for any still-running analysis, so tearing down a
// pipeline mid-flight (e.g. a kernel threw) cannot leave a worker writing
// into freed slots.
ScenarioPipeline::~ScenarioPipeline() = default;

PipelineResult ScenarioPipeline::run_days(int n) {
  require(n >= 0, "cannot run a negative number of days");
  PipelineResult out;
  out.days.reserve(static_cast<std::size_t>(n));
  out.prevalence.reserve(static_cast<std::size_t>(n));
  const std::size_t ring = slots_.size();

  for (int i = 0; i < n; ++i) {
    DaySlot& slot = *slots_[ticks_ % ring];
    // The slot's previous day leaves before the new one moves in — this
    // join is the only place the pipeline ever blocks, and it preserves
    // day order because slots are reused round-robin.
    if (slot.in_flight) fold(slot, out);

    slot.day = sim_->next_day();
    slot.stats = sim_->run_day_kernel(slot.dns_log, slot.http_log);
    metric_count("pipeline.days");

    if (options_.window == 0) {
      // Serial reference: same analyze/fold code, inline and immediate.
      analyze(slot);
      fold(slot, out);
    } else {
      DaySlot* launched = &slot;
      slot.task =
          Executor::global().submit([this, launched] { analyze(*launched); });
      slot.in_flight = true;
    }
    ++ticks_;
  }

  // Drain oldest-first: (ticks_ + k) % ring walks the ring in day order.
  for (std::size_t k = 0; k < ring; ++k) {
    DaySlot& slot = *slots_[(ticks_ + k) % ring];
    if (slot.in_flight) fold(slot, out);
  }
  return out;
}

void ScenarioPipeline::analyze(DaySlot& slot) {
  // Root span: this scope runs inline (window 0) or on a pool worker whose
  // phase path is whatever the last batch left there — pin it either way.
  const PhaseSpan span("pipeline.analysis", PhaseSpan::kRoot);
  slot.store.join(slot.dns_log, slot.http_log);
  // Columnar figure-5 scoring, byte-identical to fig5_daily_prevalence's
  // per-day body (same overload, slot arena in place of its loop arena).
  slot.improvements = daily_improvement(slot.store.columns(slot.day),
                                        options_.fig5, options_.threads,
                                        &slot.arena);
}

void ScenarioPipeline::fold(DaySlot& slot, PipelineResult& out) {
  slot.task.join();  // no-op when analyze ran inline; rethrows task errors
  slot.in_flight = false;
  metric_count("pipeline.folds");

  sim_->measurements_mut().put_day(slot.day, slot.store.take_day(slot.day));

  // Threshold fold — the exact arithmetic of fig5_daily_prevalence, one
  // day at a time (0-threshold swaps in epsilon, divide last).
  Fig5Day day;
  day.day = slot.day;
  day.fraction_above.assign(options_.fig5.thresholds.size(), 0.0);
  if (!slot.improvements.empty()) {
    for (const auto& [group, improvement] : slot.improvements) {
      (void)group;
      for (std::size_t i = 0; i < options_.fig5.thresholds.size(); ++i) {
        const Milliseconds threshold = options_.fig5.thresholds[i] == 0.0
                                           ? options_.fig5.epsilon_ms
                                           : options_.fig5.thresholds[i];
        if (improvement > threshold) day.fraction_above[i] += 1.0;
      }
    }
    for (double& f : day.fraction_above) {
      f /= static_cast<double>(slot.improvements.size());
    }
  }
  out.prevalence.push_back(std::move(day));

  if (trainer_) {
    // Row order within the day equals the serial loop's (the join output
    // is thread-count-invariant), and fold order equals day order — so
    // the trainer sees the exact serial observation sequence.
    trainer_->observe_all(sim_->measurements().columns(slot.day));
    out.observed = trainer_->observed();
  }
  out.days.push_back(slot.stats);
}

}  // namespace acdn
