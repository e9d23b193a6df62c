#include "routing/bgp.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/check.h"
#include "common/error.h"
#include "common/metrics.h"

namespace acdn {

namespace {
constexpr int kInf = std::numeric_limits<int>::max() / 2;
/// Longest AS path a walk may take before the CDN hop.
constexpr std::size_t kMaxWalkLength = 16;
}

const char* to_string(RouteType t) {
  switch (t) {
    case RouteType::kCustomer: return "customer";
    case RouteType::kPeer:     return "peer";
    case RouteType::kProvider: return "provider";
  }
  return "?";
}

std::span<const RouteCandidate> BgpRouteTable::candidates(AsId as_id) const {
  require(as_id.valid() && std::size_t{as_id.value} + 1 < offsets_.size(),
          "BgpRouteTable: AS id out of range");
  const std::uint32_t first = offsets_[as_id.value];
  return std::span<const RouteCandidate>(candidates_)
      .subspan(first, offsets_[as_id.value + 1] - first);
}

std::optional<RouteCandidate> BgpRouteTable::best(AsId as_id) const {
  auto c = candidates(as_id);
  if (c.empty()) return std::nullopt;
  return c.front();
}

std::optional<RouteCandidate> BgpRouteTable::best_customer(AsId as_id) const {
  for (const RouteCandidate& c : candidates(as_id)) {
    if (c.type == RouteType::kCustomer) return c;
  }
  return std::nullopt;
}

std::vector<AsId> BgpRouteTable::walk(AsId as_id,
                                      std::size_t candidate_index) const {
  std::vector<AsId> path;
  auto cands = candidates(as_id);
  if (cands.empty()) return path;
  // Selection below indexes the preference ranking; a table that lost its
  // sort order would silently pick the wrong route.
  ACDN_DCHECK(std::is_sorted(cands.begin(), cands.end()))
      << "candidate table for AS " << as_id.value << " is unsorted";
  candidate_index = std::min(candidate_index, cands.size() - 1);
  path.reserve(kMaxWalkLength + 1);  // one allocation, however long the walk
  path.push_back(as_id);

  RouteCandidate current = cands[candidate_index];
  // Valley-free invariant: once we traverse a customer or peer edge, every
  // subsequent hop must follow the next AS's best *customer* route.
  bool customer_chain_only = current.type != RouteType::kProvider;
  while (true) {
    const AsId next = current.next_hop;
    path.push_back(next);
    if (next == cdn_) break;
    std::optional<RouteCandidate> next_route =
        customer_chain_only ? best_customer(next) : best(next);
    // A provider hop may be followed by anything; after that we are in the
    // "descending" or "across" phase depending on the chosen route type.
    if (!next_route) {
      // Table inconsistency would be a bug in compute(); fail loudly.
      throw Error("BgpRouteTable::walk: dead end at AS " +
                  std::to_string(next.value));
    }
    if (next_route->type != RouteType::kProvider) customer_chain_only = true;
    current = *next_route;
    require(path.size() <= kMaxWalkLength,
            "BGP walk exceeded maximum path length");
  }
  ACDN_CHECK_EQ(path.back().value, cdn_.value)
      << "BGP walk must terminate at the CDN";
  return path;
}

BgpSimulator::BgpSimulator(const AsGraph& graph, AsId cdn)
    : graph_(&graph), cdn_(cdn) {
  require(graph.as_node(cdn).type == AsType::kCdn,
          "BgpSimulator target must be a CDN-type AS");
}

BgpRouteTable BgpSimulator::compute(
    std::span<const MetroId> announce_metros) const {
  const ScopedTimer compute_timer("bgp.compute_ms");
  metric_count("bgp.tables_computed");
  const AsGraph& g = *graph_;
  require(!announce_metros.empty(), "prefix must be announced somewhere");
  std::vector<MetroId> announce(announce_metros.begin(),
                                announce_metros.end());
  std::sort(announce.begin(), announce.end());
  announce.erase(std::unique(announce.begin(), announce.end()),
                 announce.end());
  for (MetroId m : announce_metros) {
    require(g.as_node(cdn_).present_in(m),
            "announce metro is not a CDN PoP");
  }

  const std::size_t n = g.as_count();

  // Usable first-hop adjacency: the neighbor can pick the prefix up either
  // over a configured peering metro that originates it, or — because the
  // prefix is announced to everyone interconnected at the announce point
  // (§3.1) — at any announce metro where the neighbor has a PoP at all.
  // Decided once per CDN link, indexed by link.
  const auto announced = [&](MetroId m) {
    return std::binary_search(announce.begin(), announce.end(), m);
  };
  std::vector<bool> usable(g.link_count(), false);
  for (const Neighbor& nb : g.neighbors(cdn_)) {
    const AsLink& link = g.link(nb.link_index);
    const AsNode& node = g.as_node(nb.as);
    usable[nb.link_index] =
        std::any_of(link.metros.begin(), link.metros.end(), announced) ||
        std::any_of(announce.begin(), announce.end(),
                    [&](MetroId m) { return node.present_in(m); });
  }

  // --- Stage 1: customer routes (paths that only descend provider->customer
  // edges when viewed from the route holder; equivalently, the CDN is in the
  // holder's customer cone). BFS upward from the CDN.
  std::vector<int> cust_len(n, kInf);
  cust_len[cdn_.value] = 0;
  std::deque<AsId> queue;
  // Seed: ASes for which the CDN is a customer, via usable adjacencies.
  for (const Neighbor& nb : g.neighbors(cdn_)) {
    if (nb.kind == Neighbor::Kind::kProvider && usable[nb.link_index]) {
      if (cust_len[nb.as.value] > 1) {
        cust_len[nb.as.value] = 1;
        queue.push_back(nb.as);
      }
    }
  }
  while (!queue.empty()) {
    const AsId x = queue.front();
    queue.pop_front();
    for (const Neighbor& nb : g.neighbors(x)) {
      if (nb.kind != Neighbor::Kind::kProvider) continue;  // export upward
      if (cust_len[nb.as.value] > cust_len[x.value] + 1) {
        cust_len[nb.as.value] = cust_len[x.value] + 1;
        queue.push_back(nb.as);
      }
    }
  }

  // --- Stage 2: peer routes. Peers only export customer routes, so a peer
  // route's length is fixed once customer lengths are known.
  std::vector<int> peer_len(n, kInf);
  for (std::size_t i = 0; i < n; ++i) {
    const AsId x(static_cast<std::uint32_t>(i));
    if (x == cdn_) continue;
    for (const Neighbor& nb : g.neighbors(x)) {
      if (nb.as == cdn_ && !usable[nb.link_index]) continue;
      if (nb.kind == Neighbor::Kind::kPeer && cust_len[nb.as.value] < kInf) {
        peer_len[i] = std::min(peer_len[i], cust_len[nb.as.value] + 1);
      }
    }
  }

  // --- Stage 3: provider routes. A provider exports its *selected* route —
  // and BGP selects by relationship before length, so the exported length is
  // the length of the preference-ranked best, not the shortest. Provider
  // routes chain down the customer hierarchy; relax to fixpoint (selected
  // lengths are non-increasing, so this terminates).
  std::vector<int> prov_len(n, kInf);
  auto selected_len = [&](std::size_t i) {
    if (i == cdn_.value) return 0;
    if (cust_len[i] < kInf) return cust_len[i];
    if (peer_len[i] < kInf) return peer_len[i];
    return prov_len[i];
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const AsNode& node : g.all_as()) {
      const std::size_t i = node.id.value;
      if (node.id == cdn_) continue;
      for (const Neighbor& nb : g.neighbors(node.id)) {
        if (nb.kind != Neighbor::Kind::kProvider) continue;
        if (nb.as == cdn_ && !usable[nb.link_index]) continue;
        const int via = selected_len(nb.as.value);
        if (via < kInf && prov_len[i] > via + 1) {
          prov_len[i] = via + 1;
          changed = true;
        }
      }
    }
  }

  // --- Candidate assembly: what each neighbor would actually export.
  BgpRouteTable table;
  table.cdn_ = cdn_;
  table.offsets_.reserve(n + 1);
  table.offsets_.push_back(0);
  std::vector<RouteCandidate> cands;  // one AS's candidates, reused
  for (const AsNode& node : g.all_as()) {
    ACDN_DCHECK_EQ(std::size_t{node.id.value}, table.offsets_.size() - 1)
        << "ASes must be stored in id order";
    if (node.id == cdn_) {  // the origin holds no route to itself
      table.offsets_.push_back(table.offsets_.back());
      continue;
    }
    cands.clear();
    for (const Neighbor& nb : g.neighbors(node.id)) {
      if (nb.as == cdn_ && !usable[nb.link_index]) continue;
      switch (nb.kind) {
        case Neighbor::Kind::kCustomer:
          if (cust_len[nb.as.value] < kInf) {
            cands.push_back(RouteCandidate{RouteType::kCustomer,
                                           cust_len[nb.as.value] + 1, nb.as});
          }
          break;
        case Neighbor::Kind::kPeer:
          // Peers export only customer routes (and their own origin).
          if (cust_len[nb.as.value] < kInf) {
            cands.push_back(RouteCandidate{RouteType::kPeer,
                                           cust_len[nb.as.value] + 1, nb.as});
          }
          break;
        case Neighbor::Kind::kProvider: {
          // Providers export their selected route, whatever its type.
          const int via = selected_len(nb.as.value);
          if (via < kInf) {
            cands.push_back(
                RouteCandidate{RouteType::kProvider, via + 1, nb.as});
          }
          break;
        }
      }
    }
    std::sort(cands.begin(), cands.end());
    for (const RouteCandidate& c : cands) {
      ACDN_DCHECK_GE(c.as_path_len, 1)
          << "zero-length route at AS " << node.id.value;
      ACDN_DCHECK(c.next_hop.valid() && c.next_hop != node.id)
          << "candidate at AS " << node.id.value << " loops or is invalid";
    }
    table.candidates_.insert(table.candidates_.end(), cands.begin(),
                             cands.end());
    ACDN_DCHECK_LE(table.candidates_.size(), std::size_t{UINT32_MAX});
    table.offsets_.push_back(
        static_cast<std::uint32_t>(table.candidates_.size()));
  }
  return table;
}

}  // namespace acdn
