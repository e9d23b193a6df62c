#include "load/fastroute.h"

#include <algorithm>

#include "common/error.h"

namespace acdn {

double SheddingPlan::moved_share() const {
  double moved = 0.0;
  for (const ShedDirective& d : directives) moved += d.queries_per_day;
  const double total = final_load.total_offered();
  return total > 0.0 ? moved / total : 0.0;
}

SheddingPlan FastRouteController::plan(const LoadMap& start) const {
  require(config_.target_utilization > 0.0 &&
              config_.target_utilization <= 1.0,
          "target_utilization must be in (0,1]");
  const Deployment& deployment = model_->router().cdn().deployment();
  const std::size_t n = start.offered.size();

  SheddingPlan plan;
  plan.final_load = start;
  LoadMap& load = plan.final_load;

  for (int round = 0; round < config_.max_rounds; ++round) {
    bool any_overloaded = false;
    bool any_moved = false;

    for (std::size_t i = 0; i < n; ++i) {
      const FrontEndId from(static_cast<std::uint32_t>(i));
      const double target =
          load.capacity[i] * config_.target_utilization;
      if (load.offered[i] <= target) continue;
      any_overloaded = true;

      // How much to move this round: the excess, bounded by the gradual-
      // shedding cap.
      double excess = load.offered[i] - target;
      excess = std::min(excess, load.offered[i] * config_.max_shed_per_round);

      // Spill to the nearest sites with spare capacity, nearest first.
      const auto neighbors = deployment.nearest_sites(
          deployment.location(from),
          static_cast<std::size_t>(config_.spill_candidates) + 1);
      for (FrontEndId to : neighbors) {
        if (to == from || excess <= 0.0) continue;
        const double spare =
            load.capacity[to.value] * config_.target_utilization -
            load.offered[to.value];
        if (spare <= 0.0) continue;
        const double amount = std::min(excess, spare);
        load.offered[i] -= amount;
        load.offered[to.value] += amount;
        excess -= amount;
        any_moved = true;
        plan.directives.push_back(ShedDirective{from, to, amount});
      }
    }

    plan.rounds = round + 1;
    if (!any_overloaded) {
      plan.stabilized = true;
      break;
    }
    if (!any_moved) break;  // out of spare capacity nearby
  }

  // Final stabilization flag: nothing above target.
  plan.stabilized = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (load.offered[i] >
        load.capacity[i] * config_.target_utilization + 1e-9) {
      plan.stabilized = false;
      break;
    }
  }
  return plan;
}

}  // namespace acdn
