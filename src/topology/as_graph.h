// Autonomous-system graph: ASes with metro-level points of presence, and
// inter-AS links (customer-provider or settlement-free peering) pinned to
// the metros where the two networks interconnect.
//
// This is the substrate on which BGP-lite (src/routing) computes anycast
// catchments. Metro-level peering locations matter because the paper's
// anycast pathologies are geographic: an ISP that hands traffic to the CDN
// at a distant peering point (Moscow -> Stockholm, §5) produces a poor
// front-end even though the AS-level path looks fine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "geo/geo_point.h"
#include "geo/metro.h"

namespace acdn {

enum class AsType {
  kTier1,    // global transit-free backbone
  kTransit,  // regional transit provider
  kAccess,   // eyeball ISP hosting clients
  kCdn,      // the content delivery network under study
};

[[nodiscard]] const char* to_string(AsType t);

/// Business relationship on a link, from the perspective of `a`:
/// kCustomerToProvider means `a` buys transit from `b`.
enum class Relationship { kCustomerToProvider, kPeerToPeer };

struct AsNode {
  AsId id;
  std::uint32_t asn = 0;
  std::string name;
  AsType type = AsType::kAccess;
  Region home_region = Region::kNorthAmerica;
  /// Metros where this AS has a point of presence.
  std::vector<MetroId> presence;
  /// Intra-AS path stretch over the geodesic between two PoPs (fiber does
  /// not follow great circles; larger values model sparse backbones).
  double backbone_stretch = 1.3;
  /// If true, this ISP does not hand off traffic at the nearest peering
  /// point (hot potato) but carries it to one of `preferred_handoffs` —
  /// the "remote peering" pathology from §5 of the paper.
  bool remote_peering_policy = false;
  std::vector<MetroId> preferred_handoffs;

  [[nodiscard]] bool present_in(MetroId m) const;
};

struct AsLink {
  AsId a;
  AsId b;
  Relationship rel = Relationship::kPeerToPeer;
  /// Metros where the two ASes interconnect (both must be present there).
  std::vector<MetroId> metros;
};

/// A neighbor as seen from one side of a link.
struct Neighbor {
  AsId as;
  /// Relationship of *neighbor* to the querying AS:
  ///   kCustomer: neighbor buys from us; kProvider: we buy from neighbor.
  enum class Kind { kCustomer, kProvider, kPeer } kind = Kind::kPeer;
  std::size_t link_index = 0;
};

class AsGraph {
 public:
  explicit AsGraph(const MetroDatabase& metros) : metros_(&metros) {}

  /// Adds an AS; the node's id is assigned by the graph. Returns the id.
  AsId add_as(AsNode node);

  /// Adds a link. Peering metros must be non-empty and both ASes must be
  /// present in each peering metro (validated). Returns the link index.
  std::size_t add_link(AsLink link);

  [[nodiscard]] std::size_t as_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const AsNode& as_node(AsId id) const;
  [[nodiscard]] AsNode& as_node(AsId id);
  [[nodiscard]] std::span<const AsNode> all_as() const { return nodes_; }
  [[nodiscard]] const AsLink& link(std::size_t index) const;
  [[nodiscard]] std::span<const Neighbor> neighbors(AsId id) const;

  /// Metros where `a` and `b` interconnect (empty if not adjacent): a
  /// view of the link's list, valid until the next add_link.
  [[nodiscard]] std::span<const MetroId> peering_metros(AsId a, AsId b) const;

  /// Every metro's access ISPs, indexed by metro id, each list in AsId
  /// order. One pass over the ASes.
  [[nodiscard]] std::vector<std::vector<AsId>> access_ases_by_metro() const;

  /// All ASes of a given type.
  [[nodiscard]] std::vector<AsId> ases_of_type(AsType t) const;

  [[nodiscard]] const MetroDatabase& metros() const { return *metros_; }

  /// Intra-AS distance between two PoP metros of `as_id`: geodesic times
  /// the AS's backbone stretch, with a small deterministic per-pair factor
  /// modelling real backbones' unevenness.
  [[nodiscard]] Kilometers intra_as_distance_km(AsId as_id, MetroId from,
                                                MetroId to) const;

  /// Among `candidates`, the metro with the lowest intra-AS distance from
  /// `from`. Requires non-empty candidates.
  [[nodiscard]] MetroId nearest_by_igp(AsId as_id, MetroId from,
                                       std::span<const MetroId> candidates)
      const;

 private:
  const MetroDatabase* metros_;
  std::vector<AsNode> nodes_;
  std::vector<AsLink> links_;
  std::vector<std::vector<Neighbor>> adjacency_;
};

}  // namespace acdn
