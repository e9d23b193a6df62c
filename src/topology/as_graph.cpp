#include "topology/as_graph.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace acdn {

const char* to_string(AsType t) {
  switch (t) {
    case AsType::kTier1:   return "tier1";
    case AsType::kTransit: return "transit";
    case AsType::kAccess:  return "access";
    case AsType::kCdn:     return "cdn";
  }
  return "?";
}

bool AsNode::present_in(MetroId m) const {
  return std::find(presence.begin(), presence.end(), m) != presence.end();
}

AsId AsGraph::add_as(AsNode node) {
  require(!node.presence.empty(), "AS must be present in at least one metro");
  const AsId id(static_cast<std::uint32_t>(nodes_.size()));
  node.id = id;
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  return id;
}

std::size_t AsGraph::add_link(AsLink link) {
  require(link.a != link.b, "self-link");
  require(!link.metros.empty(), "link needs at least one peering metro");
  const AsNode& na = as_node(link.a);
  const AsNode& nb = as_node(link.b);
  for (MetroId m : link.metros) {
    if (!na.present_in(m) || !nb.present_in(m)) {
      throw ConfigError("both ASes must be present in every peering metro (" +
                        na.name + " -- " + nb.name + " at " +
                        metros_->metro(m).name + ")");
    }
  }
  const std::size_t index = links_.size();

  const bool c2p = link.rel == Relationship::kCustomerToProvider;
  adjacency_[link.a.value].push_back(Neighbor{
      link.b, c2p ? Neighbor::Kind::kProvider : Neighbor::Kind::kPeer,
      index});
  adjacency_[link.b.value].push_back(Neighbor{
      link.a, c2p ? Neighbor::Kind::kCustomer : Neighbor::Kind::kPeer,
      index});
  links_.push_back(std::move(link));
  return index;
}

const AsNode& AsGraph::as_node(AsId id) const {
  if (!id.valid() || id.value >= nodes_.size()) {
    throw NotFoundError("AS id " + std::to_string(id.value));
  }
  return nodes_[id.value];
}

AsNode& AsGraph::as_node(AsId id) {
  return const_cast<AsNode&>(std::as_const(*this).as_node(id));
}

const AsLink& AsGraph::link(std::size_t index) const {
  require(index < links_.size(), "link index out of range");
  return links_[index];
}

std::span<const Neighbor> AsGraph::neighbors(AsId id) const {
  [[maybe_unused]] const AsNode& checked = as_node(id);  // bounds check
  return adjacency_[id.value];
}

std::span<const MetroId> AsGraph::peering_metros(AsId a, AsId b) const {
  for (const Neighbor& n : neighbors(a)) {
    if (n.as == b) return links_[n.link_index].metros;
  }
  return {};
}

std::vector<std::vector<AsId>> AsGraph::access_ases_by_metro() const {
  std::vector<std::vector<AsId>> out(metros_->size());
  for (const AsNode& node : nodes_) {
    if (node.type != AsType::kAccess) continue;
    for (MetroId m : node.presence) {
      std::vector<AsId>& in_metro = out[metros_->metro(m).id.value];
      // A presence list may repeat a metro; the AS is listed once.
      if (in_metro.empty() || in_metro.back() != node.id) {
        in_metro.push_back(node.id);
      }
    }
  }
  return out;
}

std::vector<AsId> AsGraph::ases_of_type(AsType t) const {
  std::vector<AsId> out;
  for (const AsNode& node : nodes_) {
    if (node.type == t) out.push_back(node.id);
  }
  return out;
}

Kilometers AsGraph::intra_as_distance_km(AsId as_id, MetroId from,
                                         MetroId to) const {
  if (from == to) return 0.0;
  const AsNode& node = as_node(as_id);
  const Kilometers geo = metros_->distance_km(from, to);
  // Deterministic per-(AS, metro pair) unevenness in [0.95, 1.25): real
  // backbones are not uniformly stretched. Symmetric in (from, to).
  const std::uint64_t lo = std::min(from.value, to.value);
  const std::uint64_t hi = std::max(from.value, to.value);
  std::uint64_t h = (std::uint64_t(as_id.value) << 40) ^ (lo << 20) ^ hi;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  const double uneven = 0.95 + 0.30 * double(h % 1024) / 1024.0;
  return geo * node.backbone_stretch * uneven;
}

MetroId AsGraph::nearest_by_igp(AsId as_id, MetroId from,
                                std::span<const MetroId> candidates) const {
  require(!candidates.empty(), "nearest_by_igp with no candidates");
  MetroId best = candidates.front();
  Kilometers best_d = intra_as_distance_km(as_id, from, best);
  for (MetroId c : candidates.subspan(1)) {
    const Kilometers d = intra_as_distance_km(as_id, from, c);
    if (d < best_d) {
      best = c;
      best_d = d;
    }
  }
  return best;
}

}  // namespace acdn
