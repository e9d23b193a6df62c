// Route oracle: CdnRouter's answers against a reference copy of the path
// unfolding written the plain way — a vector copy of every hop's link
// metros, linear presence scans, a haversine per handoff option, a
// deduplicated CDN-handoff list and segments on every route. On a
// paper-scale World and on one with 3x the sites, each built at 1, 2 and
// 8 simulation threads, every anycast route, trace and unicast route must
// match the reference field for field, doubles bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cdn/router.h"
#include "common/error.h"
#include "geo/geo_point.h"
#include "routing/bgp.h"
#include "sim/world.h"

namespace acdn {
namespace {

/// AsGraph::intra_as_distance_km with the geodesic recomputed per call.
Kilometers reference_intra_as_km(const AsGraph& g, AsId as, MetroId from,
                                 MetroId to) {
  if (from == to) return 0.0;
  const MetroDatabase& metros = g.metros();
  const Kilometers geo =
      haversine_km(metros.metro(from).location, metros.metro(to).location);
  const std::uint64_t lo = std::min(from.value, to.value);
  const std::uint64_t hi = std::max(from.value, to.value);
  std::uint64_t h = (std::uint64_t(as.value) << 40) ^ (lo << 20) ^ hi;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  const double uneven = 0.95 + 0.30 * double(h % 1024) / 1024.0;
  return geo * g.as_node(as).backbone_stretch * uneven;
}

std::vector<MetroId> reference_peering_metros(const AsGraph& g, AsId a,
                                              AsId b) {
  for (const Neighbor& n : g.neighbors(a)) {
    if (n.as == b) return g.link(n.link_index).metros;
  }
  return {};
}

/// Hot potato: the first option with the lowest intra-AS distance, unless
/// a remote-peering ISP's preferred handoff into the CDN is an option.
MetroId reference_handoff(const AsGraph& g, const AsNode& node,
                          MetroId current,
                          const std::vector<MetroId>& options,
                          bool cdn_handoff) {
  if (node.remote_peering_policy && cdn_handoff) {
    for (MetroId pref : node.preferred_handoffs) {
      if (std::find(options.begin(), options.end(), pref) != options.end()) {
        return pref;
      }
    }
  }
  MetroId best = options.front();
  Kilometers best_d = reference_intra_as_km(g, node.id, current, best);
  for (std::size_t i = 1; i < options.size(); ++i) {
    const Kilometers d =
        reference_intra_as_km(g, node.id, current, options[i]);
    if (d < best_d) {
      best = options[i];
      best_d = d;
    }
  }
  return best;
}

ForwardingPath reference_unfold(const AsGraph& g, AsId cdn,
                                const std::vector<AsId>& chain,
                                MetroId client_metro,
                                const std::vector<MetroId>& announce) {
  ForwardingPath path;
  if (chain.empty()) return path;
  std::vector<MetroId> announce_sorted = announce;
  std::sort(announce_sorted.begin(), announce_sorted.end());
  const auto announced = [&](MetroId m) {
    return std::binary_search(announce_sorted.begin(), announce_sorted.end(),
                              m);
  };

  MetroId current = client_metro;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const AsNode& node = g.as_node(chain[i]);
    const AsId next = chain[i + 1];
    if (!node.present_in(current)) {
      throw ConfigError("path unfolding entered AS " + node.name +
                        " at a metro without a PoP");
    }
    std::vector<MetroId> options =
        reference_peering_metros(g, chain[i], next);
    if (next == cdn) {
      std::erase_if(options, [&](MetroId m) { return !announced(m); });
      for (MetroId m : announce) {
        if (node.present_in(m) &&
            std::find(options.begin(), options.end(), m) == options.end()) {
          options.push_back(m);
        }
      }
    }
    if (options.empty()) return path;
    const MetroId handoff =
        reference_handoff(g, node, current, options, next == cdn);
    const Kilometers km = reference_intra_as_km(g, chain[i], current, handoff);
    path.segments.push_back(PathSegment{chain[i], current, handoff, km});
    path.total_km += km;
    current = handoff;
  }
  path.ingress_metro = current;
  path.as_hops = static_cast<int>(chain.size()) - 1;
  path.valid = true;
  return path;
}

/// The route a path gives: toward `fe`, or for anycast (`fe` invalid) to
/// the front end with the lowest backbone distance from the ingress.
RouteResult reference_route(const CdnNetwork& cdn, const ForwardingPath& path,
                            FrontEndId fe) {
  RouteResult r;
  if (!path.valid) return r;
  const BackboneGraph& backbone = cdn.backbone();
  if (!fe.valid()) {
    const auto sites = cdn.deployment().sites();
    fe = sites.front().id;
    Kilometers best = backbone.distance_km(path.ingress_metro,
                                           sites.front().metro);
    for (const FrontEndSite& s : sites) {
      const Kilometers cost = backbone.distance_km(path.ingress_metro, s.metro);
      if (cost < best) {
        fe = s.id;
        best = cost;
      }
    }
  }
  r.valid = true;
  r.front_end = fe;
  r.ingress_metro = path.ingress_metro;
  r.path_km = path.total_km;
  r.backbone_km = backbone.distance_km(path.ingress_metro,
                                       cdn.deployment().site(fe).metro);
  r.as_hops = path.as_hops;
  return r;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_route(const RouteResult& a, const RouteResult& b) {
  return a.valid == b.valid && a.front_end == b.front_end &&
         a.ingress_metro == b.ingress_metro &&
         bits(a.path_km) == bits(b.path_km) &&
         bits(a.backbone_km) == bits(b.backbone_km) && a.as_hops == b.as_hops;
}

bool same_path(const ForwardingPath& a, const ForwardingPath& b) {
  if (a.valid != b.valid || a.ingress_metro != b.ingress_metro ||
      bits(a.total_km) != bits(b.total_km) || a.as_hops != b.as_hops ||
      a.segments.size() != b.segments.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    const PathSegment& x = a.segments[i];
    const PathSegment& y = b.segments[i];
    if (x.as != y.as || x.from != y.from || x.to != y.to ||
        bits(x.km) != bits(y.km)) {
      return false;
    }
  }
  return true;
}

std::string where(int threads, const RoutingUnit& unit, std::size_t k) {
  std::ostringstream out;
  out << "threads " << threads << ", AS " << unit.as.value << " at metro "
      << unit.metro.value << ", #" << k;
  return out.str();
}

/// Every unit's reference routes, computed once per deployment from the
/// first World's graph (the graph and tables do not depend on threads).
struct Reference {
  std::vector<RoutingUnit> units;
  std::vector<std::vector<ForwardingPath>> anycast;  // [unit][candidate]
  std::vector<std::vector<RouteResult>> anycast_routes;
  std::vector<std::vector<RouteResult>> unicast;  // [unit][site]
};

Reference build_reference(const World& world) {
  const AsGraph& g = world.graph();
  const CdnNetwork& cdn = world.cdn();
  const BgpSimulator sim(g, cdn.as_id());
  const BgpRouteTable anycast_table = sim.compute(cdn.anycast_announce_metros());
  const auto sites = cdn.deployment().sites();
  std::vector<BgpRouteTable> unicast_tables;
  for (const FrontEndSite& s : sites) {
    unicast_tables.push_back(sim.compute(cdn.unicast_announce_metros(s.id)));
  }

  Reference ref;
  ref.units = UnitIndex::of(world.clients().clients()).units;
  for (const RoutingUnit& unit : ref.units) {
    const std::size_t n =
        std::max<std::size_t>(1, anycast_table.candidates(unit.as).size());
    auto& paths = ref.anycast.emplace_back();
    auto& routes = ref.anycast_routes.emplace_back();
    for (std::size_t k = 0; k < n; ++k) {
      paths.push_back(reference_unfold(g, cdn.as_id(),
                                       anycast_table.walk(unit.as, k),
                                       unit.metro,
                                       cdn.anycast_announce_metros()));
      routes.push_back(reference_route(cdn, paths.back(), FrontEndId{}));
    }
    auto& unicast = ref.unicast.emplace_back();
    for (const FrontEndSite& s : sites) {
      const ForwardingPath path = reference_unfold(
          g, cdn.as_id(), unicast_tables[s.id.value].walk(unit.as),
          unit.metro, cdn.unicast_announce_metros(s.id));
      unicast.push_back(reference_route(cdn, path, s.id));
    }
  }
  return ref;
}

void expect_router_matches_reference(ScenarioConfig config) {
  std::unique_ptr<Reference> ref;
  for (const int threads : {1, 2, 8}) {
    config.simulation_threads = threads;
    const World world(config);
    if (!ref) ref = std::make_unique<Reference>(build_reference(world));
    const CdnRouter& router = world.router();
    ASSERT_EQ(UnitIndex::of(world.clients().clients()).units, ref->units);

    for (std::size_t u = 0; u < ref->units.size(); ++u) {
      const RoutingUnit& unit = ref->units[u];
      const auto& paths = ref->anycast[u];
      ASSERT_EQ(std::max<std::size_t>(
                    1, router.anycast_candidate_count(unit.as)),
                paths.size());
      for (std::size_t k = 0; k < paths.size(); ++k) {
        const RouteResult& want = ref->anycast_routes[u][k];
        ASSERT_TRUE(same_route(router.route_anycast(unit.as, unit.metro, k),
                               want))
            << "route_anycast, " << where(threads, unit, k);
        const CdnRouter::Trace trace =
            router.trace_anycast(unit.as, unit.metro, k);
        ASSERT_TRUE(same_path(trace.path, paths[k]))
            << "trace_anycast path, " << where(threads, unit, k);
        ASSERT_TRUE(same_route(trace.result, want))
            << "trace_anycast result, " << where(threads, unit, k);
      }
      for (const FrontEndSite& s : world.cdn().deployment().sites()) {
        ASSERT_TRUE(
            same_route(router.route_unicast(unit.as, unit.metro, s.id),
                       ref->unicast[u][s.id.value]))
            << "route_unicast to site " << s.id.value << ", "
            << where(threads, unit, 0);
      }
    }

    const UnitRoutes fanned =
        router.route_anycast_units(world.clients().clients(), 8);
    ASSERT_EQ(fanned.index.units, ref->units);
    for (std::size_t u = 0; u < ref->units.size(); ++u) {
      ASSERT_TRUE(same_route(fanned.routes[u], ref->anycast_routes[u][0]))
          << "route_anycast_units, " << where(threads, ref->units[u], 0);
    }
  }
}

TEST(RouteOracle, PaperDefaultMatchesReference) {
  expect_router_matches_reference(ScenarioConfig::paper_default());
}

TEST(RouteOracle, ThreeTimesTheSitesMatchesReference) {
  ScenarioConfig config = ScenarioConfig::paper_default();
  DeploymentConfig& d = config.deployment;
  for (int* region : {&d.north_america, &d.europe, &d.asia, &d.oceania,
                      &d.south_america, &d.africa, &d.middle_east}) {
    *region *= 3;
  }
  expect_router_matches_reference(config);
}

}  // namespace
}  // namespace acdn
