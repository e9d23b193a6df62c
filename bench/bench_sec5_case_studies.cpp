// Section 5 case studies: reproduce the paper's troubleshooting method —
// issue traceroutes from probes in (ISP, metro) pairs with poor anycast
// performance and classify each poor route as remote peering or BGP
// topology-blindness.
//
// Paper headlines: "many instances fall into one of two cases": ISPs
// selecting remote peering points (Moscow -> Stockholm, Denver ->
// Phoenix), and BGP's lack of insight into the CDN's internal topology.
#include <cstdio>
#include <map>

#include "atlas/diagnose.h"
#include "atlas/probe.h"
#include "atlas/traceroute.h"
#include "common/csv.h"
#include "report/shape_check.h"
#include "sim/world.h"

int main() {
  using namespace acdn;
  World world(ScenarioConfig::paper_default());
  Rng rng = world.fork_rng("sec5");

  const ProbeSet probes = ProbeSet::place(world.graph(), 2, rng);
  const TracerouteEngine engine(world.router(), world.rtt());
  const AnycastDiagnoser diagnoser(world.router(), world.graph());

  std::map<AnycastPathology, int> counts;
  int poor = 0;
  int printed = 0;
  CsvWriter csv("sec5_case_studies.csv");
  csv.write_header({"probe_metro", "probe_as", "ingress_metro", "front_end",
                    "pathology", "detour_km"});

  for (const Probe& probe : probes.probes()) {
    const TracerouteResult trace = engine.trace(probe);
    if (!trace.reached) continue;

    // Poor-performance filter (what the paper keys its case studies on):
    // the anycast front-end is much farther than the closest one.
    const GeoPoint here = world.metros().metro(probe.metro).location;
    const auto& deployment = world.cdn().deployment();
    const Kilometers to_served =
        haversine_km(here, deployment.location(trace.destination));
    const auto closest = deployment.nearest_sites(here, 1);
    const Kilometers to_closest =
        haversine_km(here, deployment.location(closest.front()));
    if (to_served - to_closest < 800.0) continue;
    ++poor;

    const Diagnosis diagnosis = diagnoser.diagnose(probe, trace);
    ++counts[diagnosis.pathology];
    csv.write_row(
        {world.metros().metro(probe.metro).name,
         world.graph().as_node(probe.access_as).name,
         world.metros().metro(trace.ingress_metro).name,
         deployment.site(trace.destination).name,
         to_string(diagnosis.pathology),
         std::to_string(static_cast<int>(diagnosis.detour_km))});

    if (diagnosis.pathology != AnycastPathology::kNone && printed < 5) {
      ++printed;
      std::printf("case study %d: %s\n", printed,
                  diagnosis.description.c_str());
      std::printf("%s\n",
                  TracerouteEngine::format(trace, world.graph()).c_str());
    }
  }

  std::printf("poor anycast routes among probes: %d\n", poor);
  for (const auto& [pathology, n] : counts) {
    std::printf("  %-20s %d\n", to_string(pathology), n);
  }

  const int classified = counts[AnycastPathology::kRemotePeering] +
                         counts[AnycastPathology::kTopologyBlindness];
  ShapeReport report("Section 5 case studies");
  report.check("poor routes found among probes", double(poor), 5, 1e9);
  report.check("fraction of poor routes classified into the two causes",
               poor > 0 ? double(classified) / poor : 0.0, 0.5, 1.0);
  report.check("remote-peering cases observed",
               double(counts[AnycastPathology::kRemotePeering]), 1, 1e9);
  return report.print() ? 0 : 1;
}
