#include "core/predictor.h"

#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "stats/quantile.h"

namespace acdn {

const char* to_string(PredictionMetric m) {
  switch (m) {
    case PredictionMetric::kP25:    return "p25";
    case PredictionMetric::kMedian: return "median";
    case PredictionMetric::kP75:    return "p75";
  }
  return "?";
}

double metric_quantile(PredictionMetric m) {
  switch (m) {
    case PredictionMetric::kP25:    return 0.25;
    case PredictionMetric::kMedian: return 0.50;
    case PredictionMetric::kP75:    return 0.75;
  }
  return 0.5;
}

void PredictorConfig::validate() const {
  require(min_measurements >= 1, "min_measurements must be at least 1");
  require(threads >= 1, "predictor threads must be at least 1");
}

HistoryPredictor::HistoryPredictor(const PredictorConfig& config)
    : config_(config) {
  config_.validate();
}

Milliseconds HistoryPredictor::metric_value(
    std::span<const Milliseconds> samples, PredictionMetric metric) {
  return quantile(samples, metric_quantile(metric));
}

void HistoryPredictor::train(const MeasurementColumns& columns) {
  const PhaseSpan train_phase("predictor.train");
  const ScopedTimer train_timer("predictor.train_ms");
  score(DayAggregates::build(columns, config_.grouping));
}

void HistoryPredictor::train(const DayAggregates& aggregates) {
  const PhaseSpan train_phase("predictor.train");
  const ScopedTimer train_timer("predictor.train_ms");
  require(aggregates.grouping() == config_.grouping,
          "trained aggregates must use the configured grouping");
  score(aggregates);
}

void HistoryPredictor::train(
    std::span<const BeaconMeasurement> measurements) {
  const PhaseSpan train_phase("predictor.train");
  const ScopedTimer train_timer("predictor.train_ms");
  score(DayAggregates::build(measurements, config_.grouping));
}

void HistoryPredictor::score(const DayAggregates& agg) {
  predictions_.clear();
  // Every group scores independently on the pool; results are collected
  // back in ascending group order — the aggregate's native order — making
  // the mapping identical for any thread count.
  const std::span<const DayAggregates::Group> groups = agg.groups();
  std::vector<std::optional<Prediction>> scored(groups.size());
  std::vector<std::uint8_t> gate_empty(groups.size(), 0);

  Executor::global().parallel_for(
      0, groups.size(), config_.threads, [&](std::size_t i) {
        std::optional<Prediction> best;
        std::optional<Milliseconds> anycast_metric;
        std::size_t gated = 0;
        for (const DayAggregates::Target& target : agg.targets(groups[i])) {
          if (static_cast<int>(target.count) < config_.min_measurements) {
            ++gated;  // below the >= min_measurements qualification rule
            continue;
          }
          // §4 qualification rule: no target may be scored on fewer than
          // min_measurements (default 20) samples.
          ACDN_DCHECK_GE(static_cast<int>(target.count),
                         config_.min_measurements)
              << "qualification gate leaked an under-measured target";
          const Milliseconds value =
              metric_value(agg.samples(target), config_.metric);
          if (target.key.anycast) anycast_metric = value;
          if (!best || value < best->predicted_ms) {
            best = Prediction{target.key.anycast, target.key.front_end,
                              value, std::nullopt};
          }
        }
        if (gated > 0) metric_count("predictor.targets_gated", gated);
        if (!best) {
          // Nothing qualified: the group gets no mapping entry and its
          // clients stay on anycast — the graceful fallback when sample
          // loss empties the gate.
          gate_empty[i] = gated > 0;
          return;
        }
        best->anycast_ms = anycast_metric;
        scored[i] = *best;
      });

  std::size_t predicted_anycast = 0;
  gate_empty_groups_ = 0;
  predictions_.reserve(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    gate_empty_groups_ += gate_empty[i];
    if (!scored[i]) continue;
    if (scored[i]->anycast) ++predicted_anycast;
    predictions_.append(groups[i].key, *scored[i]);
  }
  metric_count("predictor.groups_gated_empty", gate_empty_groups_);
  metric_count("predictor.groups_seen", groups.size());
  metric_count("predictor.groups_trained", predictions_.size());
  metric_count("predictor.predicted_anycast", predicted_anycast);
  metric_count("predictor.predicted_unicast",
               predictions_.size() - predicted_anycast);
}

std::optional<Prediction> HistoryPredictor::predict(
    std::uint32_t group) const {
  auto it = predictions_.find(group);
  if (it == predictions_.end()) return std::nullopt;
  return it->second;
}

}  // namespace acdn
