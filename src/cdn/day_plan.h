// Per-day route plan: resolve each routing unit once, not each client.
//
// Anycast routing in the model is a function of the routing unit — the
// (access AS, PoP metro) pair — never of the individual client /24:
// thousands of clients behind the same unit see the same selected route,
// the same withdrawal fallback, the same outage failover and the same
// intra-day flap alternate. The per-client hot path used to re-derive all
// of that for every client every day. DayRoutePlan instead resolves every
// registered unit exactly once per simulated day into a flat, unit-indexed
// table; World::anycast_today becomes an O(1) lookup through a precomputed
// client -> unit index.
//
// Underneath sits one route slot per (unit, candidate), filled on first
// use by CdnRouter::route_anycast and kept for the plan's lifetime: base
// routes are day-invariant (the route tables are computed once per
// World), so after the first build a day's plan costs one selected-
// candidate lookup per unit plus the armed-fault overlay.
//
// Determinism: units are enumerated in sorted (AS, metro) order — the
// exact order World used to register them — and the build shards units
// over the Executor's thread-count-independent chunk plan. Each slot
// belongs to exactly one unit, so the build chunk that owns the unit
// fills it without locks, and the plan is bit-identical for any thread
// count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cdn/router.h"
#include "routing/dynamics.h"
#include "workload/clients.h"

namespace acdn {

/// A client's anycast routing for one day: the primary route, plus the
/// alternate route and its traffic share when the client's routing unit
/// flaps today.
struct DayRoute {
  RouteResult primary;
  std::optional<RouteResult> alternate;
  double alternate_share = 0.0;
};

class DayRoutePlan {
 public:
  /// Enumerates the routing units of `clients` (sorted by (AS, metro))
  /// and sizes the route slots: one per (unit, anycast candidate).
  /// `clients` must have dense ids (id.value == index), as produced by
  /// ClientPopulation.
  DayRoutePlan(const CdnRouter& router, std::span<const Client24> clients,
               int max_route_alternatives, double flap_traffic_share);

  /// Registers every unit with `dynamics`, in sorted order with the same
  /// clamped candidate counts World used — the dynamics RNG draw sequence
  /// is exactly what it was when World registered units itself.
  void register_units(RouteDynamics& dynamics) const;

  /// Resolves every unit's DayRoute for the dynamics' current day.
  /// Call after RouteDynamics::advance_to; not thread-safe (one builder).
  void build(const RouteDynamics& dynamics, int threads);

  /// True when the last build() matches the dynamics' current state, i.e.
  /// route_for answers for the day the caller is about to simulate.
  [[nodiscard]] bool current_for(const RouteDynamics& dynamics) const;

  /// The plan entry for `client`'s unit. Requires a prior build(); callers
  /// guard staleness with current_for(). O(1), safe from any thread.
  [[nodiscard]] const DayRoute& route_for(const Client24& client) const;

  /// Uncached per-client resolution — the pre-plan hot path, preserved as
  /// the property-test oracle. Reads only `dynamics` and the router; safe
  /// from any thread.
  [[nodiscard]] DayRoute resolve_reference(const Client24& client,
                                           const RouteDynamics& dynamics)
      const;

  [[nodiscard]] std::size_t unit_count() const { return units_.size(); }
  [[nodiscard]] std::size_t unit_of(const Client24& client) const;

 private:
  struct BuildShard {
    std::uint64_t resolves = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t reroutes = 0;
    std::uint64_t no_failover = 0;
  };

  /// The base route for (`unit_index`, `candidate`), resolved into its
  /// slot on first use. Only the build chunk that owns `unit_index` may
  /// call this — slots are unit-private, so no synchronisation.
  const RouteResult& cached_route(std::size_t unit_index,
                                  std::size_t candidate, BuildShard& shard);

  /// One unit's DayRoute for `day`: selected candidate, armed front-end
  /// outage failover, flap alternate. The plan-build mirror of
  /// resolve_reference.
  DayRoute plan_unit(std::size_t unit_index, const RouteDynamics& dynamics,
                     DayIndex day, BuildShard& shard);

  const CdnRouter* router_;
  const CdnNetwork* cdn_;
  double flap_traffic_share_;

  /// Units in ascending (AS, metro) order — registration order.
  std::vector<RoutingUnit> units_;
  /// Candidate count each unit registers with dynamics (clamped by the
  /// scenario's max_route_alternatives).
  std::vector<std::size_t> reg_candidates_;
  /// Prefix offsets into route_cache_: unit u's candidate slots span
  /// [cand_offset_[u], cand_offset_[u + 1]) — one per *full* anycast
  /// candidate (failover may probe past the clamped count), min one.
  std::vector<std::uint32_t> cand_offset_;
  /// client id -> unit index.
  std::vector<std::uint32_t> client_unit_;

  /// Flat per-(unit, candidate) base routes; empty until first resolved.
  std::vector<std::optional<RouteResult>> route_cache_;
  /// The last build's routes, one per unit, overwritten in place.
  std::vector<DayRoute> day_routes_;

  bool built_ = false;
  DayIndex built_day_ = 0;
  std::uint64_t built_epoch_ = 0;
};

}  // namespace acdn
