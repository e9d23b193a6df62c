// BGP-lite: AS-level route computation toward the CDN under Gao-Rexford
// (valley-free) policy.
//
// Like real BGP, the decision process here is performance-agnostic: routes
// are ranked by business relationship (customer > peer > provider), then
// AS-path length, then a deterministic tie-break — never by latency. That
// is precisely why anycast misdirects ~20% of clients in the paper, and the
// simulator reproduces the mechanism rather than the symptom.
//
// A prefix is characterized by the set of metros at which the CDN
// originates it: the anycast prefix is announced at every CDN peering
// metro, while each front-end's unicast /24 is announced only at the
// peering point(s) closest to that front-end (paper §3.1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "topology/as_graph.h"

namespace acdn {

enum class RouteType { kCustomer = 0, kPeer = 1, kProvider = 2 };

[[nodiscard]] const char* to_string(RouteType t);

/// One route a neighbor offers an AS. Candidates are ranked by BGP
/// preference: relationship first, then path length, then neighbor ASN.
struct RouteCandidate {
  RouteType type = RouteType::kProvider;
  int as_path_len = 0;  // inter-AS hops to the CDN, including the last hop
  AsId next_hop;

  friend bool operator<(const RouteCandidate& a, const RouteCandidate& b) {
    if (a.type != b.type) return a.type < b.type;
    if (a.as_path_len != b.as_path_len) return a.as_path_len < b.as_path_len;
    return a.next_hop.value < b.next_hop.value;
  }
};

/// Per-AS routing state for one prefix.
class BgpRouteTable {
 public:
  /// Candidate routes for `as_id`, best first. Empty if unreachable.
  [[nodiscard]] std::span<const RouteCandidate> candidates(AsId as_id) const;

  /// Best route (candidates().front()), or nullopt if unreachable.
  [[nodiscard]] std::optional<RouteCandidate> best(AsId as_id) const;

  /// Best customer-type route for `as_id` (what it exports to peers and
  /// providers), or nullopt. Used when walking a path: after a customer or
  /// peer hop, the remainder of the path must be a customer chain.
  [[nodiscard]] std::optional<RouteCandidate> best_customer(AsId as_id) const;

  /// Full AS path (starting at `as_id`, ending at the CDN) that traffic
  /// follows when `as_id` selects `candidate_index` (clamped to the
  /// available candidates). Empty if unreachable.
  [[nodiscard]] std::vector<AsId> walk(AsId as_id,
                                       std::size_t candidate_index = 0) const;

  [[nodiscard]] AsId cdn() const { return cdn_; }

 private:
  friend class BgpSimulator;
  AsId cdn_;
  /// Every AS's candidates, best first, concatenated in AsId order: AS i
  /// owns [offsets_[i], offsets_[i + 1]). Two blocks per table instead of
  /// one vector per AS keep a table's allocations few and contiguous,
  /// whichever thread computes it.
  std::vector<RouteCandidate> candidates_;
  std::vector<std::uint32_t> offsets_;  // as_count + 1 entries
};

class BgpSimulator {
 public:
  /// `cdn` must be an AS of type kCdn in `graph`.
  BgpSimulator(const AsGraph& graph, AsId cdn);

  /// Computes every AS's routes for a prefix originated at
  /// `announce_metros` (each must be a CDN PoP). A CDN adjacency is usable
  /// for the prefix only if it has a peering metro in the announce set.
  [[nodiscard]] BgpRouteTable compute(
      std::span<const MetroId> announce_metros) const;

  /// Convenience: the anycast prefix is announced at every CDN PoP metro.
  [[nodiscard]] BgpRouteTable compute_anycast() const {
    return compute(graph_->as_node(cdn_).presence);
  }

  [[nodiscard]] AsId cdn() const { return cdn_; }

 private:
  const AsGraph* graph_;
  AsId cdn_;
};

}  // namespace acdn
