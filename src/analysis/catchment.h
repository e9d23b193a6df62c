// Anycast catchment analysis.
//
// A front-end's catchment is the set of clients BGP delivers to it. The
// paper reasons about catchments indirectly (distances, switches, load);
// this module makes them first-class: per-front-end client counts, query
// share, country mix, and distance statistics — the operator's view of
// "who lands where and how far did they come".
#pragma once

#include <string>
#include <vector>

#include "cdn/router.h"
#include "common/flat_group.h"
#include "workload/clients.h"

namespace acdn {

struct CatchmentSummary {
  FrontEndId front_end;
  std::string name;
  std::size_t clients = 0;
  double query_share = 0.0;  // of global query volume
  Kilometers median_client_km = 0.0;
  Kilometers p90_client_km = 0.0;
  /// Countries contributing clients, with client counts (ascending by
  /// country code; per-catchment counts are small, so the FlatMap's
  /// sorted-insert writes stay cheap).
  FlatMap<std::string, int> countries;

  /// Clients from outside the front-end's own country.
  [[nodiscard]] int foreign_clients() const;
};

/// Catchments under the primary anycast routes (candidate 0). Each
/// routing unit's route resolves once, on up to `threads` executor lanes
/// (CdnRouter::route_anycast_units); per-client partial accumulators
/// combine in deterministic chunk order, so the summaries are
/// bit-identical for any thread count.
[[nodiscard]] std::vector<CatchmentSummary> compute_catchments(
    const ClientPopulation& clients, const CdnRouter& router,
    const MetroDatabase& metros, int threads = 1);

/// Global catchment health indicators.
struct CatchmentHealth {
  /// Fraction of query volume served within 1000 km.
  double volume_within_1000km = 0.0;
  /// Fraction of front-ends serving at least one client.
  double active_front_ends = 0.0;
  /// Share of the busiest front-end (concentration indicator).
  double busiest_share = 0.0;
};

[[nodiscard]] CatchmentHealth catchment_health(
    std::span<const CatchmentSummary> catchments);

}  // namespace acdn
