#include "atlas/probe.h"

namespace acdn {

ProbeSet ProbeSet::place(const AsGraph& graph, int per_metro, Rng& rng) {
  ProbeSet set;
  Rng gen = rng.fork("atlas-probes");
  const std::vector<std::vector<AsId>> isps_by_metro =
      graph.access_ases_by_metro();
  for (const Metro& m : graph.metros().all()) {
    const std::vector<AsId>& isps = isps_by_metro[m.id.value];
    if (isps.empty()) continue;
    for (int i = 0; i < per_metro; ++i) {
      Probe p;
      p.id = ProbeId(static_cast<std::uint32_t>(set.probes_.size()));
      p.metro = m.id;
      p.access_as = isps[gen.uniform_index(isps.size())];
      set.probes_.push_back(p);
    }
  }
  return set;
}

std::vector<Probe> ProbeSet::in(AsId access_as, MetroId metro) const {
  std::vector<Probe> out;
  for (const Probe& p : probes_) {
    if (p.access_as == access_as && p.metro == metro) out.push_back(p);
  }
  return out;
}

}  // namespace acdn
