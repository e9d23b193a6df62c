// Geographic unfolding of AS-level routes.
//
// BGP-lite yields the chain of ASes a client's traffic traverses; this
// module pins that chain to the map. Within each AS the traffic travels
// from its entry PoP to a handoff PoP chosen by that AS's own policy:
// hot-potato (nearest exit by IGP cost) for most networks, or a preferred
// remote handoff for ISPs with the §5 "remote peering" pathology. The
// result is the length of the geographic path, which drives the latency
// model, plus the metro where traffic finally enters the CDN — which
// determines the front-end under anycast. Traces also keep the path's
// per-AS segments.
#pragma once

#include <span>
#include <vector>

#include "routing/bgp.h"
#include "topology/as_graph.h"

namespace acdn {

struct PathSegment {
  AsId as;             // network carrying this segment
  MetroId from;        // entry PoP
  MetroId to;          // exit PoP (handoff to the next AS)
  Kilometers km = 0.0; // intra-AS distance travelled
};

struct ForwardingPath {
  bool valid = false;
  std::vector<PathSegment> segments;  // traces only (trace_chain, unfold)
  MetroId ingress_metro;    // metro where traffic enters the CDN
  Kilometers total_km = 0;  // sum of segment lengths
  int as_hops = 0;          // inter-AS handoffs traversed

  /// ASes on the path in order, starting with the client's access network.
  [[nodiscard]] std::vector<AsId> as_path() const;
};

class PathUnfolder {
 public:
  /// Records every AS's PoPs as one bit per (AS, metro), so `graph` must
  /// be complete: a PoP added afterwards is not seen. Routing policies
  /// (remote_peering_policy, preferred_handoffs) are read on every call.
  PathUnfolder(const AsGraph& graph, AsId cdn);

  /// Unfolds the route selected by (`access_as` at `client_metro`) toward a
  /// prefix announced at `announce_metros`, using the access AS's
  /// `candidate_index`-th ranked route (clamped; index 0 is BGP-best).
  /// Returns an invalid path if the table offers no route. Fills
  /// `segments`.
  [[nodiscard]] ForwardingPath unfold(
      AsId access_as, MetroId client_metro, const BgpRouteTable& table,
      std::span<const MetroId> announce_metros,
      std::size_t candidate_index = 0) const;

  /// Same unfolding with the AS-level walk already done: `chain` is the
  /// path BgpRouteTable::walk returns for the selected candidate.
  /// `announce_sorted` holds the same metros as `announce_metros` in
  /// ascending order — CdnRouter precomputes it once per table instead
  /// of per unfold. Leaves `segments` empty: a hop costs table loads and
  /// no heap work; only the CDN handoff builds its option list.
  [[nodiscard]] ForwardingPath unfold_chain(
      std::span<const AsId> chain, MetroId client_metro,
      std::span<const MetroId> announce_metros,
      std::span<const MetroId> announce_sorted) const;

  /// unfold_chain that also fills `segments`, for traceroutes and
  /// diagnosis.
  [[nodiscard]] ForwardingPath trace_chain(
      std::span<const AsId> chain, MetroId client_metro,
      std::span<const MetroId> announce_metros,
      std::span<const MetroId> announce_sorted) const;

 private:
  /// The one unfolding loop behind unfold_chain and trace_chain.
  [[nodiscard]] ForwardingPath unfold_hops(
      std::span<const AsId> chain, MetroId client_metro,
      std::span<const MetroId> announce_metros,
      std::span<const MetroId> announce_sorted, bool with_segments) const;

  [[nodiscard]] bool present(AsId as, MetroId m) const {
    return m.value < metro_count_ &&
           presence_[std::size_t{as.value} * metro_count_ + m.value];
  }

  /// `cdn_handoff` is true when the next hop is the CDN itself: the
  /// remote-peering policy concerns where an ISP interconnects with the
  /// CDN; handoffs to transit providers follow ordinary hot potato.
  [[nodiscard]] MetroId choose_handoff(const AsNode& node, MetroId current,
                                       std::span<const MetroId> options,
                                       bool cdn_handoff) const;

  const AsGraph* graph_;
  AsId cdn_;
  std::size_t metro_count_;
  std::vector<bool> presence_;  // [as * metro_count_ + metro]
};

}  // namespace acdn
