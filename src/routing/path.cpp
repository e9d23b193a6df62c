#include "routing/path.h"

#include <algorithm>

#include "common/error.h"

namespace acdn {

std::vector<AsId> ForwardingPath::as_path() const {
  std::vector<AsId> out;
  out.reserve(segments.size());
  for (const PathSegment& s : segments) out.push_back(s.as);
  return out;
}

PathUnfolder::PathUnfolder(const AsGraph& graph, AsId cdn)
    : graph_(&graph),
      cdn_(cdn),
      metro_count_(graph.metros().size()),
      presence_(graph.as_count() * metro_count_, false) {
  for (const AsNode& node : graph.all_as()) {
    for (MetroId m : node.presence) {
      const MetroId checked = graph.metros().metro(m).id;  // throws if unknown
      presence_[std::size_t{node.id.value} * metro_count_ + checked.value] =
          true;
    }
  }
}

MetroId PathUnfolder::choose_handoff(const AsNode& node, MetroId current,
                                     std::span<const MetroId> options,
                                     bool cdn_handoff) const {
  require(!options.empty(), "choose_handoff with no options");
  if (node.remote_peering_policy && cdn_handoff) {
    // Cold potato toward a preferred interconnection site when available.
    for (MetroId pref : node.preferred_handoffs) {
      if (std::find(options.begin(), options.end(), pref) != options.end()) {
        return pref;
      }
    }
  }
  return graph_->nearest_by_igp(node.id, current, options);
}

ForwardingPath PathUnfolder::unfold(AsId access_as, MetroId client_metro,
                                    const BgpRouteTable& table,
                                    std::span<const MetroId> announce_metros,
                                    std::size_t candidate_index) const {
  const std::vector<AsId> chain = table.walk(access_as, candidate_index);
  if (chain.empty()) return {};  // unreachable

  std::vector<MetroId> announce_sorted(announce_metros.begin(),
                                       announce_metros.end());
  std::sort(announce_sorted.begin(), announce_sorted.end());
  return trace_chain(chain, client_metro, announce_metros, announce_sorted);
}

ForwardingPath PathUnfolder::unfold_chain(
    std::span<const AsId> chain, MetroId client_metro,
    std::span<const MetroId> announce_metros,
    std::span<const MetroId> announce_sorted) const {
  return unfold_hops(chain, client_metro, announce_metros, announce_sorted,
                     false);
}

ForwardingPath PathUnfolder::trace_chain(
    std::span<const AsId> chain, MetroId client_metro,
    std::span<const MetroId> announce_metros,
    std::span<const MetroId> announce_sorted) const {
  return unfold_hops(chain, client_metro, announce_metros, announce_sorted,
                     true);
}

ForwardingPath PathUnfolder::unfold_hops(
    std::span<const AsId> chain, MetroId client_metro,
    std::span<const MetroId> announce_metros,
    std::span<const MetroId> announce_sorted, bool with_segments) const {
  ForwardingPath path;
  if (chain.empty()) return path;  // unreachable

  const auto announced = [&](MetroId m) {
    return std::binary_search(announce_sorted.begin(), announce_sorted.end(),
                              m);
  };

  MetroId current = client_metro;
  std::vector<MetroId> cdn_options;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const AsNode& node = graph_->as_node(chain[i]);
    const AsId next = chain[i + 1];
    if (!present(node.id, current)) {
      throw ConfigError("path unfolding entered AS " + node.name +
                        " at a metro without a PoP");
    }

    std::span<const MetroId> options = graph_->peering_metros(node.id, next);
    if (next == cdn_) {
      // Handoff into the CDN can happen at any metro where the prefix is
      // originated and this network is interconnected with the CDN: a
      // configured session metro that originates it, or any announce metro
      // where the network has a PoP (the prefix is announced to everyone
      // interconnected at that peering point, §3.1). The same sessions
      // serve the anycast and unicast prefixes; only the announce scope
      // differs. A metro listed twice keeps its first place, and a later
      // copy can change neither the first-minimum choice nor a preferred
      // handoff's membership, so the list is not deduplicated.
      cdn_options.reserve(options.size() + announce_metros.size());
      for (MetroId m : options) {
        if (announced(m)) cdn_options.push_back(m);
      }
      for (MetroId m : announce_metros) {
        if (present(node.id, m)) cdn_options.push_back(m);
      }
      options = cdn_options;
    }
    if (options.empty()) return path;  // inconsistent table; treat unreachable

    const MetroId handoff =
        choose_handoff(node, current, options, next == cdn_);
    const Kilometers km =
        graph_->intra_as_distance_km(node.id, current, handoff);
    if (with_segments) {
      path.segments.push_back(PathSegment{node.id, current, handoff, km});
    }
    path.total_km += km;
    current = handoff;
  }

  path.ingress_metro = current;
  path.as_hops = static_cast<int>(chain.size()) - 1;
  path.valid = true;
  return path;
}

}  // namespace acdn
