#include "cdn/day_plan.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/error.h"
#include "common/executor.h"
#include "common/failpoint.h"
#include "common/metrics.h"

namespace acdn {

namespace {

/// Units are few (hundreds to low thousands); a modest grain keeps the
/// chunk plan short while still amortising dispatch.
constexpr std::size_t kUnitGrain = 64;

}  // namespace

DayRoutePlan::DayRoutePlan(const CdnRouter& router,
                           std::span<const Client24> clients,
                           int max_route_alternatives,
                           double flap_traffic_share)
    : router_(&router),
      cdn_(&router.cdn()),
      flap_traffic_share_(flap_traffic_share) {
  require(max_route_alternatives >= 1, "max_route_alternatives must be >= 1");

  // Units in sorted (AS, metro) order: identical to iterating the
  // std::set World historically built, so dynamics registration order —
  // and with it the flappy-draw RNG sequence — is unchanged.
  UnitIndex index = UnitIndex::of(clients);
  units_ = std::move(index.units);
  client_unit_ = std::move(index.client_unit);

  reg_candidates_.reserve(units_.size());
  cand_offset_.reserve(units_.size() + 1);
  cand_offset_.push_back(0);
  for (const RoutingUnit& unit : units_) {
    const std::size_t full = router_->anycast_candidate_count(unit.as);
    reg_candidates_.push_back(std::min<std::size_t>(
        full, static_cast<std::size_t>(max_route_alternatives)));
    // At least one slot even for unreachable ASes: candidate 0 resolves
    // to the (invalid) empty-chain route once instead of every day.
    const std::size_t slots = std::max<std::size_t>(1, full);
    cand_offset_.push_back(cand_offset_.back() +
                           static_cast<std::uint32_t>(slots));
  }
  route_cache_.resize(cand_offset_.back());
}

void DayRoutePlan::register_units(RouteDynamics& dynamics) const {
  for (std::size_t u = 0; u < units_.size(); ++u) {
    dynamics.register_unit(units_[u], reg_candidates_[u]);
  }
}

std::size_t DayRoutePlan::unit_of(const Client24& client) const {
  ACDN_CHECK_LT(std::size_t(client.id.value), client_unit_.size());
  return client_unit_[client.id.value];
}

bool DayRoutePlan::current_for(const RouteDynamics& dynamics) const {
  return built_ && built_epoch_ == dynamics.epoch() &&
         built_day_ == dynamics.current_day();
}

const DayRoute& DayRoutePlan::route_for(const Client24& client) const {
  ACDN_CHECK(built_) << "route_for before the first build";
  return day_routes_[unit_of(client)];
}

const RouteResult& DayRoutePlan::cached_route(std::size_t unit_index,
                                              std::size_t candidate,
                                              BuildShard& shard) {
  const std::uint32_t base = cand_offset_[unit_index];
  const std::size_t slots = cand_offset_[unit_index + 1] - base;
  // Clamp exactly like BgpRouteTable::walk so cached answers match the
  // uncached reference for any requested index.
  const std::size_t k = candidate < slots ? candidate : slots - 1;
  std::optional<RouteResult>& entry = route_cache_[base + k];
  if (entry) {
    ++shard.cache_hits;
    return *entry;
  }
  const RoutingUnit& unit = units_[unit_index];
  entry = router_->route_anycast(unit.as, unit.metro, k);
  ++shard.resolves;
  return *entry;
}

DayRoute DayRoutePlan::plan_unit(std::size_t unit_index,
                                 const RouteDynamics& dynamics, DayIndex day,
                                 BuildShard& shard) {
  const RoutingUnit& unit = units_[unit_index];
  const std::size_t selected = dynamics.selected_candidate(unit);
  DayRoute route;
  route.primary = cached_route(unit_index, selected, shard);

  // Front-end outage ("cdn/front_end"): when the primary's site is down
  // today, its anycast announcement is gone and BGP converges on the next
  // candidate whose site is up — evaluated once per unit, since every
  // client behind the unit sees the same convergence.
  if (fail_points_armed() && route.primary.valid &&
      !cdn_->deployment().site_up(route.primary.front_end, day)) {
    const std::size_t n = cand_offset_[unit_index + 1] -
                          cand_offset_[unit_index];
    bool rerouted = false;
    for (std::size_t k = 1; k < n && !rerouted; ++k) {
      const RouteResult& fallback =
          cached_route(unit_index, (selected + k) % n, shard);
      if (fallback.valid &&
          cdn_->deployment().site_up(fallback.front_end, day)) {
        route.primary = fallback;
        rerouted = true;
      }
    }
    if (rerouted) {
      ++shard.reroutes;
    } else {
      // Every candidate is down: anycast still answers somewhere, so the
      // primary serves (degraded) rather than blackholing the unit.
      ++shard.no_failover;
    }
  }

  if (const auto alt = dynamics.flap_alternate(unit)) {
    const RouteResult& alternate = cached_route(unit_index, *alt, shard);
    if (alternate.valid && alternate.front_end != route.primary.front_end &&
        (!fail_points_armed() ||
         cdn_->deployment().site_up(alternate.front_end, day))) {
      route.alternate = alternate;
      route.alternate_share = flap_traffic_share_;
    }
  }
  return route;
}

void DayRoutePlan::build(const RouteDynamics& dynamics, int threads) {
  const DayIndex day = dynamics.current_day();
  day_routes_.resize(units_.size());
  const BuildShard totals = Executor::global().parallel_reduce(
      0, units_.size(), threads, kUnitGrain, BuildShard{},
      [&](BuildShard& shard, std::size_t u) {
        day_routes_[u] = plan_unit(u, dynamics, day, shard);
      },
      [](BuildShard& acc, BuildShard&& shard) {
        acc.resolves += shard.resolves;
        acc.cache_hits += shard.cache_hits;
        acc.reroutes += shard.reroutes;
        acc.no_failover += shard.no_failover;
      });

  built_ = true;
  built_day_ = day;
  built_epoch_ = dynamics.epoch();

  metric_count("route_plan.builds");
  metric_count("route_plan.resolves", totals.resolves);
  metric_count("route_plan.cache_hits", totals.cache_hits);
  if (totals.reroutes) {
    metric_count("fault.frontend_reroutes", totals.reroutes);
  }
  if (totals.no_failover) {
    metric_count("fault.frontend_no_failover", totals.no_failover);
  }
  metric_gauge("route_plan.units", static_cast<double>(units_.size()));
  metric_gauge("route_plan.cache_entries",
               static_cast<double>(route_cache_.size()));
}

DayRoute DayRoutePlan::resolve_reference(const Client24& client,
                                         const RouteDynamics& dynamics)
    const {
  const RoutingUnit unit{client.access_as, client.metro};
  const std::size_t selected = dynamics.selected_candidate(unit);
  const DayIndex day = dynamics.current_day();
  DayRoute route;
  route.primary =
      router_->route_anycast(client.access_as, client.metro, selected);

  if (fail_points_armed() && route.primary.valid &&
      !cdn_->deployment().site_up(route.primary.front_end, day)) {
    const std::size_t n = router_->anycast_candidate_count(client.access_as);
    bool rerouted = false;
    for (std::size_t k = 1; k < n && !rerouted; ++k) {
      const RouteResult fallback = router_->route_anycast(
          client.access_as, client.metro, (selected + k) % n);
      if (fallback.valid &&
          cdn_->deployment().site_up(fallback.front_end, day)) {
        route.primary = fallback;
        rerouted = true;
      }
    }
    if (rerouted) {
      metric_count("fault.frontend_reroutes");
    } else {
      metric_count("fault.frontend_no_failover");
    }
  }

  if (const auto alt = dynamics.flap_alternate(unit)) {
    const RouteResult alternate =
        router_->route_anycast(client.access_as, client.metro, *alt);
    if (alternate.valid && alternate.front_end != route.primary.front_end &&
        (!fail_points_armed() ||
         cdn_->deployment().site_up(alternate.front_end, day))) {
      route.alternate = alternate;
      route.alternate_share = flap_traffic_share_;
    }
  }
  return route;
}

}  // namespace acdn
