#include "topology/backbone.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "common/error.h"

namespace acdn {

void BackboneGraph::add_link(const MetroDatabase& metros, MetroId a,
                             MetroId b, double fiber_factor) {
  if (a == b) return;
  // De-duplicate.
  for (const BackboneLink& l : links_) {
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return;
  }
  const Kilometers km = metros.distance_km(a, b) * fiber_factor;
  links_.push_back(BackboneLink{a, b, km});
  adjacency_[index_[a.value]].emplace_back(index_[b.value], km);
  adjacency_[index_[b.value]].emplace_back(index_[a.value], km);
}

BackboneGraph BackboneGraph::build(const MetroDatabase& metros,
                                   std::vector<MetroId> pops,
                                   const BackboneConfig& config, Rng& rng) {
  require(!pops.empty(), "backbone needs at least one PoP");
  require(config.nearest_links >= 1, "nearest_links must be positive");
  std::sort(pops.begin(), pops.end());
  pops.erase(std::unique(pops.begin(), pops.end()), pops.end());

  BackboneGraph g;
  g.pops_ = pops;
  g.adjacency_.resize(pops.size());
  g.index_.assign(metros.size(), kNoPop);
  for (std::size_t i = 0; i < pops.size(); ++i) {
    g.index_[metros.metro(pops[i]).id.value] = i;
  }

  Rng gen = rng.fork("backbone");
  auto factor = [&] {
    return gen.uniform(config.fiber_factor_min, config.fiber_factor_max);
  };

  // k-nearest neighbor links.
  for (MetroId a : pops) {
    std::vector<std::pair<Kilometers, MetroId>> by_distance;
    for (MetroId b : pops) {
      if (b != a) by_distance.emplace_back(metros.distance_km(a, b), b);
    }
    std::sort(by_distance.begin(), by_distance.end());
    const int n = std::min<int>(config.nearest_links,
                                static_cast<int>(by_distance.size()));
    for (int k = 0; k < n; ++k) {
      g.add_link(metros, a, by_distance[static_cast<std::size_t>(k)].second,
                 factor());
    }
  }

  // Express links between the most populous PoP of each region pair.
  if (config.interconnect_region_hubs) {
    std::map<Region, MetroId> hub;
    for (MetroId pop : pops) {
      const Metro& m = metros.metro(pop);
      auto it = hub.find(m.region);
      if (it == hub.end() ||
          metros.metro(it->second).population_millions <
              m.population_millions) {
        hub[m.region] = pop;
      }
    }
    for (auto i = hub.begin(); i != hub.end(); ++i) {
      for (auto j = std::next(i); j != hub.end(); ++j) {
        g.add_link(metros, i->second, j->second, factor());
      }
    }
  }

  // Connectivity repair: link components by their closest PoP pair.
  while (true) {
    // Union-find-lite via BFS from PoP 0.
    std::vector<bool> reached(pops.size(), false);
    std::queue<std::size_t> queue;
    queue.push(0);
    reached[0] = true;
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop();
      for (const auto& [v, km] : g.adjacency_[u]) {
        if (!reached[v]) {
          reached[v] = true;
          queue.push(v);
        }
      }
    }
    std::size_t best_u = 0, best_v = 0;
    Kilometers best = kUnreachable;
    for (std::size_t u = 0; u < pops.size(); ++u) {
      if (!reached[u]) continue;
      for (std::size_t v = 0; v < pops.size(); ++v) {
        if (reached[v]) continue;
        const Kilometers km = metros.distance_km(pops[u], pops[v]);
        if (km < best) {
          best = km;
          best_u = u;
          best_v = v;
        }
      }
    }
    if (best == kUnreachable) break;  // connected
    g.add_link(metros, pops[best_u], pops[best_v], factor());
  }

  g.run_all_pairs();
  return g;
}

void BackboneGraph::run_all_pairs() {
  const std::size_t n = pops_.size();
  dist_.assign(n, std::vector<Kilometers>(n, kUnreachable));
  next_.assign(n, std::vector<std::size_t>(n, n));

  // Dijkstra from every source (n is small).
  using Entry = std::pair<Kilometers, std::size_t>;
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<std::size_t> parent(n, n);
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist_[src][src] = 0.0;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist_[src][u]) continue;
      for (const auto& [v, km] : adjacency_[u]) {
        if (dist_[src][u] + km < dist_[src][v]) {
          dist_[src][v] = dist_[src][u] + km;
          parent[v] = u;
          heap.emplace(dist_[src][v], v);
        }
      }
    }
    // First hop from src toward every destination (for path()).
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst == src || dist_[src][dst] == kUnreachable) continue;
      std::size_t step = dst;
      while (parent[step] != src) step = parent[step];
      next_[src][dst] = step;
    }
  }
}

Kilometers BackboneGraph::distance_km(MetroId from, MetroId to) const {
  const std::size_t fi = index_of(from);
  const std::size_t ti = index_of(to);
  if (fi == kNoPop || ti == kNoPop) return kUnreachable;
  return dist_[fi][ti];
}

std::vector<MetroId> BackboneGraph::path(MetroId from, MetroId to) const {
  std::vector<MetroId> out;
  std::size_t u = index_of(from);
  const std::size_t dst = index_of(to);
  if (u == kNoPop || dst == kNoPop) return out;
  out.push_back(from);
  while (u != dst) {
    u = next_[u][dst];
    if (u >= pops_.size()) return {};  // unreachable
    out.push_back(pops_[u]);
  }
  return out;
}

}  // namespace acdn
