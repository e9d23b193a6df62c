// Explicit backbone graph with shortest-path (IGP) costs.
//
// Real WANs are sparse graphs, not geodesic cliques: traffic between two
// PoPs rides fiber through intermediate PoPs, so IGP distance can differ
// substantially from the great circle — the root of the paper's
// "BGP's lack of insight into the underlying topology" case study (§5),
// where two ingress routers equidistant from a client had very different
// interior paths to the nearest front-end.
//
// The builder connects each PoP to its k nearest PoPs plus a few long-haul
// express links between regional hubs, then answers pairwise distance
// queries via Dijkstra (cached).
#pragma once

#include <limits>
#include <vector>

#include "common/rng.h"
#include "geo/metro.h"

namespace acdn {

struct BackboneLink {
  MetroId a;
  MetroId b;
  Kilometers km = 0.0;  // fiber distance (geodesic x route factor)
};

struct BackboneConfig {
  /// Each PoP links to this many nearest PoPs.
  int nearest_links = 3;
  /// Long-haul express links between the largest hub per region pair.
  bool interconnect_region_hubs = true;
  /// Fiber does not follow great circles.
  double fiber_factor_min = 1.05;
  double fiber_factor_max = 1.35;
};

/// A connected weighted graph over a PoP set with shortest-path queries.
class BackboneGraph {
 public:
  /// Builds the k-nearest + hub-express topology over `pops`, then adds
  /// minimum-distance links until the graph is connected.
  static BackboneGraph build(const MetroDatabase& metros,
                             std::vector<MetroId> pops,
                             const BackboneConfig& config, Rng& rng);

  /// Shortest-path fiber distance between two PoPs; infinity() if either
  /// is not a PoP (never happens for graphs from build()).
  [[nodiscard]] Kilometers distance_km(MetroId from, MetroId to) const;

  /// The PoP sequence of the shortest path (inclusive of endpoints).
  [[nodiscard]] std::vector<MetroId> path(MetroId from, MetroId to) const;

  [[nodiscard]] const std::vector<BackboneLink>& links() const {
    return links_;
  }
  [[nodiscard]] const std::vector<MetroId>& pops() const { return pops_; }
  [[nodiscard]] bool contains(MetroId pop) const {
    return index_of(pop) != kNoPop;
  }

  static constexpr Kilometers kUnreachable =
      std::numeric_limits<double>::infinity();

 private:
  static constexpr std::size_t kNoPop = std::numeric_limits<std::size_t>::max();

  /// Dense PoP index of `pop`, or kNoPop if it is not a PoP.
  [[nodiscard]] std::size_t index_of(MetroId pop) const {
    return pop.value < index_.size() ? index_[pop.value] : kNoPop;
  }
  void add_link(const MetroDatabase& metros, MetroId a, MetroId b,
                double fiber_factor);
  void run_all_pairs();

  std::vector<MetroId> pops_;
  std::vector<std::size_t> index_;  // by metro id; kNoPop off the PoP set
  std::vector<BackboneLink> links_;
  std::vector<std::vector<std::pair<std::size_t, Kilometers>>> adjacency_;
  // Dense all-pairs distance matrix (PoP counts are small: < 100) and
  // next-hop matrix for path reconstruction.
  std::vector<std::vector<Kilometers>> dist_;
  std::vector<std::vector<std::size_t>> next_;
};

}  // namespace acdn
