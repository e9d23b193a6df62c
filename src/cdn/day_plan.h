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
// Underneath sits a per-(unit, candidate) RouteResult cache fed by a
// memoized BGP walk cache (routing/walk_cache.h): base routes are
// day-invariant, so after the first build a day's plan costs one
// selected-candidate lookup per unit plus the armed-fault overlay. Cache
// entries are generation-tagged; invalidate_routes() bumps the generation
// for callers that rebuild the underlying route table.
//
// Determinism: units are enumerated in sorted (AS, metro) order — the
// exact order World used to register them — and the build shards units
// over the Executor's thread-count-independent chunk plan. Each cache
// entry belongs to exactly one unit, so the parallel build writes without
// locks and produces bit-identical plans for any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cdn/router.h"
#include "common/arena.h"
#include "routing/dynamics.h"
#include "routing/walk_cache.h"
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
  /// and sizes the route cache: one slot per (unit, anycast candidate).
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

  /// Drops every cached base route (generation bump); the next build
  /// re-resolves. For callers that recompute the underlying route table.
  void invalidate_routes();

  [[nodiscard]] std::size_t unit_count() const { return units_.size(); }
  [[nodiscard]] std::size_t unit_of(const Client24& client) const;
  [[nodiscard]] const WalkCache& walks() const { return walk_cache_; }
  [[nodiscard]] DayIndex built_day() const { return built_day_; }

 private:
  struct BuildShard {
    std::uint64_t resolves = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t reroutes = 0;
    std::uint64_t no_failover = 0;
  };

  /// The cached base route for (`unit_index`, `candidate`), resolving on
  /// generation mismatch. Only the build chunk that owns `unit_index`
  /// may call this — entries are unit-private, so no synchronisation.
  const RouteResult& cached_route(std::size_t unit_index,
                                  const RoutingUnit& unit,
                                  std::size_t candidate, std::uint64_t gen,
                                  BuildShard& shard);

  /// One unit's DayRoute for `day`: selected candidate, armed front-end
  /// outage failover, flap alternate. The plan-build mirror of
  /// resolve_reference.
  DayRoute plan_unit(std::size_t unit_index, const RouteDynamics& dynamics,
                     DayIndex day, std::uint64_t gen, BuildShard& shard);

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

  WalkCache walk_cache_;
  /// Flat per-(unit, candidate) base routes with per-entry generation
  /// tags; an entry is live iff its tag equals the walk-cache generation.
  std::vector<RouteResult> route_cache_;
  std::vector<std::uint64_t> route_gen_;

  /// Per-day outputs live in the arena: same capacity every day, elements
  /// overwritten in place by each build.
  ScratchArena arena_;
  std::vector<DayRoute>* day_routes_ = nullptr;

  bool built_ = false;
  DayIndex built_day_ = 0;
  std::uint64_t built_epoch_ = 0;
};

}  // namespace acdn
