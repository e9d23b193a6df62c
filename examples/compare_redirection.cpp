// Compare client-redirection strategies over one simulated week:
//   * anycast            — what the paper's CDN runs in production,
//   * geo-DNS            — closest front-end to the LDNS / ECS prefix via
//                          the (imperfect) geolocation database,
//   * hybrid (paper §6)  — anycast by default, DNS override for client
//                          groups the history-based predictor expects to
//                          gain ≥5 ms, retrained every morning.
//
// All three run through a real AuthoritativeServer (TTL caching, ECS), so
// the comparison includes DNS-operational effects, not just path choice.
//
//   $ ./compare_redirection [seed]
#include <cstdio>
#include <cstdlib>

#include "core/hybrid.h"
#include "dns/policy.h"
#include "sim/policy_lab.h"

int main(int argc, char** argv) {
  using namespace acdn;
  ScenarioConfig config = ScenarioConfig::paper_default();
  config.schedule.beacon_sampling = 0.10;  // dense beacon to train on
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);
  World world(config);

  const AnycastPolicy anycast;
  const GeoClosestPolicy geo(world.cdn().deployment(), world.ldns(),
                             world.clients(), world.geolocation());
  PredictorConfig pc;
  pc.metric = PredictionMetric::kP25;
  pc.min_measurements = 20;
  pc.grouping = Grouping::kEcsPrefix;
  HistoryPredictor predictor(pc);
  HybridPolicy::Config hc;
  hc.min_predicted_gain_ms = 5.0;
  const HybridPolicy hybrid(predictor, world.clients(), hc);

  PolicyLabConfig lab_config;
  lab_config.samples_per_client_day = 2;
  PolicyLab lab(world, lab_config);
  lab.add_strategy("anycast", anycast);
  lab.add_strategy("geo-dns", geo);
  lab.add_strategy("hybrid", hybrid);
  lab.retrain_each_day(predictor);

  const auto outcomes = lab.run(/*days=*/7);

  std::printf("%-12s %8s %8s %8s %8s %10s %12s\n", "policy", "p25", "p50",
              "p75", "p95", "unicast%", "auth-queries");
  for (const StrategyOutcome& o : outcomes) {
    std::printf("%-12s %8.1f %8.1f %8.1f %8.1f %9.1f%% %12zu\n",
                o.name.c_str(), o.achieved_ms.quantile(0.25),
                o.achieved_ms.quantile(0.50), o.achieved_ms.quantile(0.75),
                o.achieved_ms.quantile(0.95),
                100.0 * o.unicast_answer_share, o.authoritative_queries);
  }
  std::printf(
      "\nExpected shape: hybrid matches or beats anycast through the body\n"
      "of the distribution by moving only the clients anycast was failing\n"
      "(note the tiny unicast%%); geo-DNS answers everything with unicast\n"
      "and suffers where the geolocation database or a distant LDNS\n"
      "misplaces clients. p95 is dominated by transient delay spikes and\n"
      "varies run to run.\n");
  return 0;
}
