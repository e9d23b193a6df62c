#include "topology/builder.h"

#include <algorithm>
#include <map>
#include <string>

#include "common/error.h"
#include "common/logging.h"

namespace acdn {

namespace {

/// Top metros by population in a region ("hubs"): tier-1s and transits are
/// always present there, which guarantees interconnection opportunities.
std::vector<MetroId> region_hubs(const MetroDatabase& metros, Region r,
                                 std::size_t count) {
  std::vector<MetroId> in_region = metros.in_region(r);
  std::sort(in_region.begin(), in_region.end(),
            [&](MetroId a, MetroId b) {
              return metros.metro(a).population_millions >
                     metros.metro(b).population_millions;
            });
  if (in_region.size() > count) in_region.resize(count);
  return in_region;
}

std::vector<MetroId> all_hubs(const MetroDatabase& metros,
                              std::size_t per_region) {
  std::vector<MetroId> hubs;
  for (int r = 0; r < kNumRegions; ++r) {
    for (MetroId m :
         region_hubs(metros, static_cast<Region>(r), per_region)) {
      hubs.push_back(m);
    }
  }
  return hubs;
}

/// The metros of `b` that are also in `a`, in `b`'s order: `a` is marked
/// in a bitset over the database's metro ids.
std::vector<MetroId> intersection(const MetroDatabase& metros,
                                  const std::vector<MetroId>& a,
                                  const std::vector<MetroId>& b) {
  std::vector<bool> in_a(metros.size(), false);
  for (MetroId m : a) in_a[metros.metro(m).id.value] = true;
  std::vector<MetroId> out;
  for (MetroId m : b) {
    if (m.value < in_a.size() && in_a[m.value]) out.push_back(m);
  }
  return out;
}

/// Keep at most `cap` peering metros, preferring the most populous ones.
std::vector<MetroId> cap_by_population(const MetroDatabase& metros,
                                       std::vector<MetroId> candidates,
                                       std::size_t cap) {
  std::sort(candidates.begin(), candidates.end(),
            [&](MetroId a, MetroId b) {
              return metros.metro(a).population_millions >
                     metros.metro(b).population_millions;
            });
  if (candidates.size() > cap) candidates.resize(cap);
  return candidates;
}

/// Keep at most `cap` peering metros chosen round-robin across regions
/// (most populous first within each region). Interconnection between big
/// networks is geographically spread; capping by raw population would
/// concentrate every peering in Asia's megacities and produce wildly
/// unrealistic cross-continent ingress.
std::vector<MetroId> spread_by_region(const MetroDatabase& metros,
                                      std::vector<MetroId> candidates,
                                      std::size_t cap) {
  std::map<Region, std::vector<MetroId>> buckets;
  for (MetroId m : candidates) buckets[metros.metro(m).region].push_back(m);
  for (auto& [region, in_region] : buckets) {
    std::sort(in_region.begin(), in_region.end(),
              [&](MetroId a, MetroId b) {
                return metros.metro(a).population_millions >
                       metros.metro(b).population_millions;
              });
  }
  std::vector<MetroId> out;
  for (std::size_t round = 0; out.size() < std::min(cap, candidates.size());
       ++round) {
    bool any = false;
    for (auto& [region, in_region] : buckets) {
      if (round < in_region.size() && out.size() < cap) {
        out.push_back(in_region[round]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

void sort_unique(std::vector<MetroId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

void TopologyConfig::validate() const {
  require(tier1_count >= 2, "need at least two tier-1 ASes");
  require(transits_per_region >= 1, "need at least one transit per region");
  require(national_access_per_country >= 1,
          "need at least one national access ISP per country");
  require(remote_peering_fraction >= 0.0 && remote_peering_fraction <= 1.0,
          "remote_peering_fraction must be in [0,1]");
}

AsGraph build_topology(const MetroDatabase& metros,
                       const TopologyConfig& config, Rng& rng) {
  config.validate();
  AsGraph graph(metros);
  std::uint32_t next_asn = 100;

  const std::vector<MetroId> hubs = all_hubs(metros, 3);

  // --- Tier-1 backbones ---
  std::vector<AsId> tier1s;
  Rng t1_rng = rng.fork("tier1");
  for (int i = 0; i < config.tier1_count; ++i) {
    AsNode node;
    node.asn = next_asn++;
    node.name = "Tier1-" + std::to_string(i + 1);
    node.type = AsType::kTier1;
    node.home_region = static_cast<Region>(i % kNumRegions);
    node.presence = hubs;
    for (const Metro& m : metros.all()) {
      if (std::find(hubs.begin(), hubs.end(), m.id) == hubs.end() &&
          t1_rng.bernoulli(config.tier1_presence_prob)) {
        node.presence.push_back(m.id);
      }
    }
    sort_unique(node.presence);
    node.backbone_stretch = t1_rng.uniform(1.15, 1.35);
    tier1s.push_back(graph.add_as(std::move(node)));
  }

  // Tier-1 full peer mesh.
  for (std::size_t i = 0; i < tier1s.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1s.size(); ++j) {
      auto common = intersection(metros, graph.as_node(tier1s[i]).presence,
                                 graph.as_node(tier1s[j]).presence);
      if (common.empty()) continue;
      graph.add_link(AsLink{tier1s[i], tier1s[j], Relationship::kPeerToPeer,
                            spread_by_region(metros, std::move(common), 10)});
    }
  }

  // --- Regional transit providers ---
  std::map<Region, std::vector<AsId>> transits_by_region;
  Rng tr_rng = rng.fork("transit");
  for (int r = 0; r < kNumRegions; ++r) {
    const auto region = static_cast<Region>(r);
    const std::vector<MetroId> region_metros = metros.in_region(region);
    if (region_metros.empty()) continue;
    const std::vector<MetroId> rhubs = region_hubs(metros, region, 3);
    for (int i = 0; i < config.transits_per_region; ++i) {
      AsNode node;
      node.asn = next_asn++;
      node.name = std::string("Transit-") + to_string(region) + "-" +
                  std::to_string(i + 1);
      node.type = AsType::kTransit;
      node.home_region = region;
      node.presence = rhubs;
      for (MetroId m : region_metros) {
        if (std::find(rhubs.begin(), rhubs.end(), m) == rhubs.end() &&
            tr_rng.bernoulli(config.transit_presence_prob)) {
          node.presence.push_back(m);
        }
      }
      sort_unique(node.presence);
      node.backbone_stretch = tr_rng.uniform(1.25, 1.55);
      const AsId id = graph.add_as(std::move(node));
      transits_by_region[region].push_back(id);

      // Transit buys from 2-3 tier-1s.
      const int providers = tr_rng.uniform_int(2, 3);
      std::vector<AsId> shuffled = tier1s;
      tr_rng.shuffle(shuffled);
      int added = 0;
      for (AsId t1 : shuffled) {
        if (added == providers) break;
        auto common = intersection(metros, graph.as_node(id).presence,
                                   graph.as_node(t1).presence);
        if (common.empty()) continue;
        graph.add_link(AsLink{id, t1, Relationship::kCustomerToProvider,
                              cap_by_population(metros, std::move(common), 6)});
        ++added;
      }
      require(added > 0, "transit AS ended up with no tier-1 provider");
    }
    // Same-region transits peer with configured probability.
    const auto& rts = transits_by_region[region];
    for (std::size_t i = 0; i < rts.size(); ++i) {
      for (std::size_t j = i + 1; j < rts.size(); ++j) {
        if (!tr_rng.bernoulli(config.transit_peer_prob)) continue;
        auto common = intersection(metros, graph.as_node(rts[i]).presence,
                                   graph.as_node(rts[j]).presence);
        if (common.empty()) continue;
        graph.add_link(AsLink{rts[i], rts[j], Relationship::kPeerToPeer,
                              cap_by_population(metros, std::move(common), 4)});
      }
    }
  }

  // --- Access ISPs ---
  // Group metros by country.
  std::map<std::string, std::vector<MetroId>> by_country;
  for (const Metro& m : metros.all()) by_country[m.country].push_back(m.id);

  Rng ac_rng = rng.fork("access");
  auto connect_access = [&](AsId access) {
    // Choose 1..max providers among transits (preferring home region) and
    // tier-1s with overlapping presence.
    const AsNode& node = graph.as_node(access);
    std::vector<AsId> candidates = transits_by_region[node.home_region];
    for (AsId t1 : tier1s) candidates.push_back(t1);
    ac_rng.shuffle(candidates);
    const int want = ac_rng.uniform_int(1, config.max_providers_per_access);
    int added = 0;
    for (AsId provider : candidates) {
      if (added == want) break;
      auto common = intersection(metros, node.presence,
                                 graph.as_node(provider).presence);
      if (common.empty()) continue;
      graph.add_link(AsLink{access, provider,
                            Relationship::kCustomerToProvider,
                            cap_by_population(metros, std::move(common), 4)});
      ++added;
    }
    return added;
  };

  auto maybe_remote_peering = [&](AsId access) {
    AsNode& node = graph.as_node(access);
    if (!ac_rng.bernoulli(config.remote_peering_fraction)) return;
    node.remote_peering_policy = true;
    // Preferred handoff: usually the ISP's most populous PoP (its hub);
    // half the time a *foreign* interconnection hub — a PoP the ISP runs
    // at a big IXP abroad, like a Russian ISP handing off in Stockholm
    // (the paper's §5 case). The foreign PoP is added to the ISP's
    // presence so links there are valid.
    std::vector<MetroId> pref = cap_by_population(metros, node.presence, 1);
    if (ac_rng.bernoulli(0.5)) {
      const Metro& home = metros.metro(pref.front());
      MetroId best_foreign = pref.front();
      Kilometers best_d = 1e18;
      for (const Metro& m : metros.all()) {
        if (m.country == home.country || m.population_millions < 2.0) {
          continue;
        }
        const Kilometers d = metros.distance_km(m.id, home.id);
        if (d < best_d && d > 300.0) {
          best_d = d;
          best_foreign = m.id;
        }
      }
      if (best_foreign != pref.front()) {
        pref = {best_foreign};
        if (!node.present_in(best_foreign)) {
          node.presence.push_back(best_foreign);
          sort_unique(node.presence);
        }
      }
    }
    node.preferred_handoffs = std::move(pref);
  };

  for (const auto& [country, country_metros] : by_country) {
    const Region region = metros.metro(country_metros.front()).region;
    const int nationals =
        std::min<int>(config.national_access_per_country,
                      std::max<int>(1, int(country_metros.size())));
    for (int i = 0; i < nationals; ++i) {
      AsNode node;
      node.asn = next_asn++;
      node.name = country + "-Telecom-" + std::to_string(i + 1);
      node.type = AsType::kAccess;
      node.home_region = region;
      node.presence = country_metros;
      sort_unique(node.presence);
      node.backbone_stretch = ac_rng.uniform(1.3, 1.7);
      const AsId id = graph.add_as(std::move(node));
      if (connect_access(id) == 0) {
        // Guarantee connectivity: extend the first regional transit (or a
        // tier-1) into this ISP's largest metro and link there.
        AsId provider = transits_by_region[region].empty()
                            ? tier1s.front()
                            : transits_by_region[region].front();
        MetroId hub =
            cap_by_population(metros, graph.as_node(id).presence, 1).front();
        AsNode& pnode = graph.as_node(provider);
        if (!pnode.present_in(hub)) pnode.presence.push_back(hub);
        graph.add_link(AsLink{id, provider,
                              Relationship::kCustomerToProvider, {hub}});
      }
      maybe_remote_peering(id);
    }
    // Metro-local ISPs.
    for (MetroId m : country_metros) {
      for (int i = 0; i < config.local_access_per_metro; ++i) {
        AsNode node;
        node.asn = next_asn++;
        node.name = metros.metro(m).name + "-Local-" + std::to_string(i + 1);
        node.type = AsType::kAccess;
        node.home_region = region;
        node.presence = {m};
        node.backbone_stretch = 1.2;
        const AsId id = graph.add_as(std::move(node));
        if (connect_access(id) == 0) {
          AsId provider = transits_by_region[region].empty()
                              ? tier1s.front()
                              : transits_by_region[region].front();
          AsNode& pnode = graph.as_node(provider);
          if (!pnode.present_in(m)) pnode.presence.push_back(m);
          graph.add_link(AsLink{id, provider,
                                Relationship::kCustomerToProvider, {m}});
        }
        // Local ISPs rarely run national backbones; remote peering does not
        // apply to a single-metro network.
      }
    }
  }

  Log(LogLevel::kInfo) << "topology: " << graph.as_count() << " ASes, "
                       << graph.link_count() << " links";
  return graph;
}

AsId add_cdn_as(AsGraph& graph, std::vector<MetroId> presence,
                const CdnLinkConfig& config, Rng& rng) {
  require(!presence.empty(), "CDN needs at least one PoP");
  const MetroDatabase& metros = graph.metros();
  sort_unique(presence);

  AsNode node;
  node.asn = 8075;  // a nod to the AS under study
  node.name = "CDN";
  node.type = AsType::kCdn;
  node.home_region = Region::kNorthAmerica;
  node.presence = presence;
  node.backbone_stretch = 1.2;  // CDNs run dense, well-engineered backbones
  const AsId cdn = graph.add_as(std::move(node));

  Rng link_rng = rng.fork("cdn-links");

  // Transit from tier-1s for universal reachability. The primary transit
  // provider is extended to every CDN PoP metro (tier-1 backbones are
  // global) and interconnects there, which guarantees that each
  // front-end's unicast /24 — announced only at the peering point closest
  // to that front-end (§3.1) — is reachable from the whole Internet.
  std::vector<AsId> tier1s = graph.ases_of_type(AsType::kTier1);
  link_rng.shuffle(tier1s);
  require(!tier1s.empty(), "topology has no tier-1 ASes");
  {
    const AsId primary = tier1s.front();
    AsNode& pnode = graph.as_node(primary);
    for (MetroId m : graph.as_node(cdn).presence) {
      if (!pnode.present_in(m)) pnode.presence.push_back(m);
    }
    std::sort(pnode.presence.begin(), pnode.presence.end());
    graph.add_link(AsLink{cdn, primary, Relationship::kCustomerToProvider,
                          graph.as_node(cdn).presence});
  }
  int transit_added = 1;
  for (std::size_t i = 1; i < tier1s.size(); ++i) {
    if (transit_added == config.transit_providers) break;
    const AsId t1 = tier1s[i];
    auto common = intersection(metros, graph.as_node(cdn).presence,
                               graph.as_node(t1).presence);
    if (common.empty()) continue;
    graph.add_link(
        AsLink{cdn, t1, Relationship::kCustomerToProvider, std::move(common)});
    ++transit_added;
  }

  // Settlement-free peering with remaining tier-1s and with transits.
  const auto transit_cap =
      static_cast<std::size_t>(config.max_transit_peering_metros);
  for (AsId t1 : tier1s) {
    bool already = false;
    for (const Neighbor& n : graph.neighbors(cdn)) already |= (n.as == t1);
    if (already || !link_rng.bernoulli(config.tier1_peer_prob)) continue;
    auto common = intersection(metros, graph.as_node(cdn).presence,
                               graph.as_node(t1).presence);
    if (common.empty()) continue;
    graph.add_link(
        AsLink{cdn, t1, Relationship::kPeerToPeer,
               spread_by_region(metros, std::move(common), 16)});
  }
  for (AsId tr : graph.ases_of_type(AsType::kTransit)) {
    if (!link_rng.bernoulli(config.transit_peer_prob)) continue;
    auto common = intersection(metros, graph.as_node(cdn).presence,
                               graph.as_node(tr).presence);
    if (common.empty()) continue;
    graph.add_link(
        AsLink{cdn, tr, Relationship::kPeerToPeer,
               cap_by_population(metros, std::move(common), transit_cap)});
  }

  // Open peering with access ISPs at shared metros (IXP-style).
  // Remote-peering ISPs nearly always peer — buying one cheap IXP port at
  // their preferred hub is exactly why they have the policy.
  for (AsId ac : graph.ases_of_type(AsType::kAccess)) {
    const AsNode& anode = graph.as_node(ac);
    const double peer_prob =
        anode.remote_peering_policy ? 0.9 : config.access_peer_prob;
    if (!link_rng.bernoulli(peer_prob)) continue;
    auto common =
        intersection(metros, graph.as_node(cdn).presence, anode.presence);
    if (common.empty()) continue;
    std::vector<MetroId> peering;
    if (anode.remote_peering_policy) {
      // Remote-peering ISPs interconnect only at their preferred handoffs
      // (when the CDN is present there) — the §5 pathology.
      peering = intersection(metros, common, anode.preferred_handoffs);
      if (peering.empty()) continue;
    } else {
      peering = cap_by_population(
          metros, std::move(common),
          static_cast<std::size_t>(config.max_access_peering_metros));
    }
    graph.add_link(
        AsLink{cdn, ac, Relationship::kPeerToPeer, std::move(peering)});
  }

  Log(LogLevel::kInfo) << "cdn AS added: " << graph.neighbors(cdn).size()
                       << " interconnections";
  return cdn;
}

}  // namespace acdn
