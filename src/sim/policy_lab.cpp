#include "sim/policy_lab.h"

#include <map>
#include <tuple>

#include "common/error.h"

namespace acdn {

void PolicyLab::add_strategy(std::string name,
                             const RedirectionPolicy& policy) {
  Strategy strategy;
  strategy.name = std::move(name);
  strategy.policy = &policy;
  AuthoritativeConfig auth;
  auth.answer_ttl_seconds = config_.answer_ttl_seconds;
  auth.honor_ecs = config_.resolvers_send_ecs;
  strategy.server = std::make_unique<AuthoritativeServer>(
      policy, world_->cdn().deployment(), auth);
  strategies_.push_back(std::move(strategy));
}

std::vector<StrategyOutcome> PolicyLab::run(int days) {
  require(!strategies_.empty(), "PolicyLab has no strategies");
  require(days > 0, "PolicyLab needs at least one day");
  World& world = *world_;
  Simulation sim(world);
  Rng rng = world.fork_rng("policy-lab");
  // Unicast answers often name a front end outside the client's LDNS
  // pool, which the beacon resolves on every call. This loop is serial,
  // so it keeps each (access AS, metro, front end) route it resolves.
  std::map<std::tuple<AsId, MetroId, FrontEndId>, RouteResult>
      unicast_routes;

  for (DayIndex day = 0; day < days; ++day) {
    sim.run_day();
    if (retrain_ && day > 0) {
      retrain_->train(sim.measurements().columns(day - 1));
    }

    for (const Client24& client : world.clients().clients()) {
      const DayRoute route = world.anycast_today(client);
      if (!route.primary.valid) continue;
      for (int s = 0; s < config_.samples_per_client_day; ++s) {
        const SimTime when = world.schedule().sample_query_time(day, rng);
        for (Strategy& strategy : strategies_) {
          const Ipv4Address address = strategy.server->resolve(
              client.ldns,
              config_.resolvers_send_ecs
                  ? std::optional<Prefix>(client.prefix)
                  : std::nullopt,
              when);
          const DnsAnswer answer = strategy.server->decode(address);
          ++strategy.resolutions;
          Milliseconds rtt = 0.0;
          if (answer.anycast) {
            const RouteResult& r =
                (route.alternate && rng.bernoulli(route.alternate_share))
                    ? *route.alternate
                    : route.primary;
            rtt = world.beacon().route_rtt(client, r, when, rng);
          } else {
            ++strategy.unicast_answers;
            const auto [it, inserted] = unicast_routes.try_emplace(
                {client.access_as, client.metro, answer.front_end});
            if (inserted) {
              it->second = world.router().route_unicast(
                  client.access_as, client.metro, answer.front_end);
            }
            rtt = world.beacon().route_rtt(client, it->second, when, rng);
          }
          strategy.achieved.add(rtt, client.daily_queries);
        }
      }
    }
  }

  std::vector<StrategyOutcome> outcomes;
  for (Strategy& strategy : strategies_) {
    StrategyOutcome outcome;
    outcome.name = strategy.name;
    outcome.achieved_ms = std::move(strategy.achieved);
    outcome.authoritative_queries = strategy.server->authoritative_queries();
    outcome.cache_hits = strategy.server->cache_hits();
    outcome.unicast_answer_share =
        strategy.resolutions > 0
            ? double(strategy.unicast_answers) / double(strategy.resolutions)
            : 0.0;
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace acdn
