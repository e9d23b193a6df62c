#include <gtest/gtest.h>

#include "common/error.h"
#include "core/hybrid.h"
#include "sim/policy_lab.h"

namespace acdn {
namespace {

class PolicyLabTest : public ::testing::Test {
 protected:
  PolicyLabTest() : world_(ScenarioConfig::small_test()) {}
  World world_;
};

TEST_F(PolicyLabTest, RequiresStrategiesAndDays) {
  PolicyLab empty(world_);
  EXPECT_THROW((void)empty.run(1), ConfigError);

  const AnycastPolicy anycast;
  PolicyLab lab(world_);
  lab.add_strategy("anycast", anycast);
  EXPECT_THROW((void)lab.run(0), ConfigError);
}

TEST_F(PolicyLabTest, AnycastStrategyAnswersNoUnicast) {
  const AnycastPolicy anycast;
  PolicyLab lab(world_);
  lab.add_strategy("anycast", anycast);
  const auto outcomes = lab.run(2);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].name, "anycast");
  EXPECT_DOUBLE_EQ(outcomes[0].unicast_answer_share, 0.0);
  EXPECT_GT(outcomes[0].achieved_ms.count(), world_.clients().size());
  EXPECT_GT(outcomes[0].achieved_ms.quantile(0.5), 1.0);
}

TEST_F(PolicyLabTest, GeoStrategyAnswersAllUnicast) {
  const GeoClosestPolicy geo(world_.cdn().deployment(), world_.ldns(),
                             world_.clients(), world_.geolocation());
  PolicyLab lab(world_);
  lab.add_strategy("geo", geo);
  const auto outcomes = lab.run(1);
  EXPECT_DOUBLE_EQ(outcomes[0].unicast_answer_share, 1.0);
}

TEST_F(PolicyLabTest, TtlCachingReducesAuthoritativeLoad) {
  const AnycastPolicy anycast;
  PolicyLabConfig config;
  config.samples_per_client_day = 3;
  config.answer_ttl_seconds = 6 * 3600.0;  // long TTL: repeats mostly hit
  PolicyLab lab(world_, config);
  lab.add_strategy("anycast", anycast);
  const auto outcomes = lab.run(1);
  EXPECT_GT(outcomes[0].cache_hits, 0u);
  EXPECT_LT(outcomes[0].authoritative_queries,
            outcomes[0].cache_hits + outcomes[0].authoritative_queries);
}

TEST_F(PolicyLabTest, HybridSitsBetweenAnycastAndAllUnicast) {
  PredictorConfig pc;
  pc.metric = PredictionMetric::kP25;
  pc.min_measurements = 10;
  pc.grouping = Grouping::kEcsPrefix;
  HistoryPredictor predictor(pc);
  HybridPolicy::Config hc;
  hc.min_predicted_gain_ms = 5.0;
  const HybridPolicy hybrid(predictor, world_.clients(), hc);
  const AnycastPolicy anycast;

  PolicyLab lab(world_);
  lab.add_strategy("anycast", anycast);
  lab.add_strategy("hybrid", hybrid);
  lab.retrain_each_day(predictor);
  const auto outcomes = lab.run(3);
  ASSERT_EQ(outcomes.size(), 2u);
  const StrategyOutcome& hybrid_outcome = outcomes[1];
  // The hybrid answers some, but far from all, resolutions with unicast.
  EXPECT_GT(hybrid_outcome.unicast_answer_share, 0.0);
  EXPECT_LT(hybrid_outcome.unicast_answer_share, 0.5);
  // Most clients stay on anycast, so the medians nearly coincide. (Tail
  // quantiles of a 3-day small-world run are too noisy to compare — the
  // full-scale comparison lives in examples/compare_redirection.)
  EXPECT_NEAR(hybrid_outcome.achieved_ms.quantile(0.5),
              outcomes[0].achieved_ms.quantile(0.5),
              outcomes[0].achieved_ms.quantile(0.5) * 0.30);
}

}  // namespace
}  // namespace acdn
