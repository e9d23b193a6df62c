#include "cdn/router.h"

#include <algorithm>

#include "common/check.h"
#include "common/error.h"
#include "common/executor.h"
#include "common/metrics.h"

namespace acdn {

namespace {

std::vector<MetroId> sorted_copy(std::span<const MetroId> metros) {
  std::vector<MetroId> out(metros.begin(), metros.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

UnitIndex UnitIndex::of(std::span<const Client24> clients) {
  // Sorted, deduplicated (AS, metro) pairs, then one binary search per
  // client.
  UnitIndex index;
  index.units.reserve(clients.size());
  for (const Client24& c : clients) {
    index.units.push_back(RoutingUnit{c.access_as, c.metro});
  }
  std::sort(index.units.begin(), index.units.end());
  index.units.erase(std::unique(index.units.begin(), index.units.end()),
                    index.units.end());
  index.units.shrink_to_fit();

  index.client_unit.assign(clients.size(), 0);
  for (const Client24& c : clients) {
    ACDN_CHECK_LT(std::size_t(c.id.value), clients.size());
    const auto it = std::lower_bound(index.units.begin(), index.units.end(),
                                     RoutingUnit{c.access_as, c.metro});
    index.client_unit[c.id.value] =
        static_cast<std::uint32_t>(it - index.units.begin());
  }
  return index;
}

CdnRouter::CdnRouter(const AsGraph& graph, const CdnNetwork& cdn,
                     int threads)
    : cdn_(&cdn), unfolder_(graph, cdn.as_id()) {
  const BgpSimulator sim(graph, cdn.as_id());
  anycast_announce_sorted_ = sorted_copy(cdn.anycast_announce_metros());
  // One BGP table per prefix, each independent of the others: table 0 is
  // the anycast prefix, table i + 1 site i's unicast /24. Every table
  // lands in its own slot, so the result is the same for any `threads`.
  const std::span<const FrontEndSite> sites = cdn.deployment().sites();
  unicast_tables_.resize(sites.size());
  unicast_announce_sorted_.resize(sites.size());
  Executor::global().parallel_for(
      0, sites.size() + 1, threads, [&](std::size_t i) {
        if (i == 0) {
          anycast_table_ = sim.compute(cdn.anycast_announce_metros());
          return;
        }
        const std::span<const MetroId> announce =
            cdn.unicast_announce_metros(sites[i - 1].id);
        unicast_tables_[i - 1] = sim.compute(announce);
        unicast_announce_sorted_[i - 1] = sorted_copy(announce);
      });
}

RouteResult CdnRouter::route_anycast(AsId access, MetroId metro,
                                     std::size_t candidate_index) const {
  metric_count("router.anycast_lookups");
  const std::vector<AsId> chain =
      anycast_table_.walk(access, candidate_index);
  return anycast_result(unfolder_.unfold_chain(
      chain, metro, cdn_->anycast_announce_metros(),
      anycast_announce_sorted_));
}

CdnRouter::Trace CdnRouter::trace_anycast(AsId access, MetroId metro,
                                          std::size_t candidate_index) const {
  Trace trace;
  const std::vector<AsId> chain =
      anycast_table_.walk(access, candidate_index);
  trace.path = unfolder_.trace_chain(chain, metro,
                                     cdn_->anycast_announce_metros(),
                                     anycast_announce_sorted_);
  trace.result = anycast_result(trace.path);
  return trace;
}

RouteResult CdnRouter::anycast_result(const ForwardingPath& path) const {
  RouteResult result;
  if (!path.valid) return result;
  result.valid = true;
  result.ingress_metro = path.ingress_metro;
  result.front_end = cdn_->nearest_front_end(path.ingress_metro);
  result.path_km = path.total_km;
  result.backbone_km = cdn_->backbone_km(path.ingress_metro, result.front_end);
  result.as_hops = path.as_hops;
  return result;
}

UnitRoutes CdnRouter::route_anycast_units(std::span<const Client24> clients,
                                          int threads) const {
  UnitRoutes out{UnitIndex::of(clients), {}};
  out.routes.resize(out.index.units.size());
  Executor::global().parallel_for(
      0, out.routes.size(), threads, [&](std::size_t u) {
        const RoutingUnit& unit = out.index.units[u];
        out.routes[u] = route_anycast(unit.as, unit.metro);
      });
  return out;
}

std::size_t CdnRouter::anycast_candidate_count(AsId access) const {
  return anycast_table_.candidates(access).size();
}

RouteResult CdnRouter::route_unicast(AsId access, MetroId metro,
                                     FrontEndId fe) const {
  metric_count("router.unicast_lookups");
  require(fe.valid() && fe.value < unicast_tables_.size(),
          "unknown front-end");
  RouteResult result;
  const auto& announce = cdn_->unicast_announce_metros(fe);
  const std::vector<AsId> chain = unicast_tables_[fe.value].walk(access);
  const ForwardingPath path = unfolder_.unfold_chain(
      chain, metro, announce, unicast_announce_sorted_[fe.value]);
  if (!path.valid) return result;
  result.valid = true;
  result.ingress_metro = path.ingress_metro;
  result.front_end = fe;
  result.path_km = path.total_km;
  result.backbone_km = cdn_->backbone_km(path.ingress_metro, fe);
  result.as_hops = path.as_hops;
  return result;
}

}  // namespace acdn
