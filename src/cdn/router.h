// End-to-end route resolution: (access AS, client metro) -> front-end.
//
// Combines BGP-lite tables (one for the anycast prefix, one per front-end
// unicast /24) with geographic path unfolding and the CDN's intradomain hot
// potato. This is the oracle the rest of the system queries: passive logs,
// beacon measurements and the Atlas-style traceroutes all derive from the
// same routing state, exactly as they all observe the same Internet in the
// real study.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cdn/network.h"
#include "common/check.h"
#include "routing/bgp.h"
#include "routing/dynamics.h"
#include "routing/path.h"
#include "workload/clients.h"

namespace acdn {

struct RouteResult {
  bool valid = false;
  FrontEndId front_end;
  MetroId ingress_metro;    // where traffic entered the CDN
  Kilometers path_km = 0;   // client metro -> ingress, one way
  Kilometers backbone_km = 0;  // ingress -> front-end on the CDN backbone
  int as_hops = 0;

  [[nodiscard]] Kilometers total_km() const { return path_km + backbone_km; }
};

/// A client population's routing units: its distinct (access AS, metro)
/// pairs in ascending order, and each client's index into them. Clients
/// must have dense ids (id.value == index), as ClientPopulation produces.
struct UnitIndex {
  std::vector<RoutingUnit> units;
  std::vector<std::uint32_t> client_unit;  // client id -> unit index

  [[nodiscard]] static UnitIndex of(std::span<const Client24> clients);
};

/// Candidate-0 anycast routes, one per routing unit.
struct UnitRoutes {
  UnitIndex index;
  std::vector<RouteResult> routes;  // parallel to index.units

  [[nodiscard]] const RouteResult& for_client(const Client24& client) const {
    ACDN_CHECK_LT(std::size_t(client.id.value), index.client_unit.size());
    return routes[index.client_unit[client.id.value]];
  }
};

class CdnRouter {
 public:
  /// Computes the anycast table and one unicast table per front-end, on
  /// up to `threads` executor lanes (the tables are the same for any
  /// count).
  CdnRouter(const AsGraph& graph, const CdnNetwork& cdn, int threads = 1);

  /// Anycast route for a client behind `access` in `metro`, using the
  /// access AS's `candidate_index`-th ranked BGP route (0 = best; route
  /// dynamics select alternates over time). The one anycast resolution
  /// path: the day-route plan (cdn/day_plan.h) fills each of its
  /// (unit, candidate) slots with one call.
  [[nodiscard]] RouteResult route_anycast(AsId access, MetroId metro,
                                          std::size_t candidate_index = 0)
      const;

  /// Every client's primary (candidate-0) anycast route. A route depends
  /// only on the client's routing unit, so each distinct unit is resolved
  /// once, on up to `threads` executor lanes, each into its own slot: the
  /// routes and the router.anycast_lookups count (one per unit) are the
  /// same for any `threads`.
  [[nodiscard]] UnitRoutes route_anycast_units(
      std::span<const Client24> clients, int threads = 1) const;

  /// Number of distinct anycast route candidates at `access` — the degrees
  /// of freedom route dynamics can exercise.
  [[nodiscard]] std::size_t anycast_candidate_count(AsId access) const;

  /// Like route_anycast, but also returns the geographic path — hop-by-hop
  /// detail for traceroute emulation and diagnosis.
  struct Trace {
    RouteResult result;
    ForwardingPath path;
  };
  [[nodiscard]] Trace trace_anycast(AsId access, MetroId metro,
                                    std::size_t candidate_index = 0) const;

  /// Unicast route to front-end `fe`'s /24 (always index-0: the unicast
  /// test prefixes are stable measurement targets).
  [[nodiscard]] RouteResult route_unicast(AsId access, MetroId metro,
                                          FrontEndId fe) const;

  [[nodiscard]] const CdnNetwork& cdn() const { return *cdn_; }

 private:
  /// The anycast RouteResult of an unfolded path (invalid if `path` is).
  [[nodiscard]] RouteResult anycast_result(const ForwardingPath& path) const;

  const CdnNetwork* cdn_;
  PathUnfolder unfolder_;
  BgpRouteTable anycast_table_;
  std::vector<BgpRouteTable> unicast_tables_;  // indexed by FrontEndId
  /// Announce metros in ascending order, precomputed once per table so
  /// the unfolder's membership tests need no per-call set build.
  std::vector<MetroId> anycast_announce_sorted_;
  std::vector<std::vector<MetroId>> unicast_announce_sorted_;
};

}  // namespace acdn
