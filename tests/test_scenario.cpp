#include <gtest/gtest.h>

#include "scenario/speed_search.hpp"
#include "scenario/tank.hpp"
#include "scenario/units.hpp"

namespace et::scenario {
namespace {

TEST(Units, SpeedConversions) {
  // §6.1: 50 km/hr ≈ 10 s/hop, 33 km/hr ≈ 15 s/hop at 140 m per hop.
  EXPECT_NEAR(seconds_per_hop(kmh_to_hops_per_s(50.0)), 10.08, 0.01);
  EXPECT_NEAR(seconds_per_hop(kmh_to_hops_per_s(33.0)), 15.27, 0.01);
  EXPECT_NEAR(hops_per_s_to_kmh(kmh_to_hops_per_s(45.0)), 45.0, 1e-9);
  EXPECT_NEAR(kmh_to_hops_per_s(1.0) * kMetersPerHop * 3.6, 1.0, 1e-9);
}

TEST(TankScenario, DeterministicForSameSeed) {
  TankScenarioParams params;
  params.cols = 8;
  params.speed_hops_per_s = 0.2;
  params.seed = 77;
  const TankRunResult a = run_tank_scenario(params);
  const TankRunResult b = run_tank_scenario(params);
  EXPECT_EQ(a.groups.heartbeats_sent, b.groups.heartbeats_sent);
  EXPECT_EQ(a.medium.bits_sent, b.medium.bits_sent);
  EXPECT_EQ(a.tracking.successful_handovers,
            b.tracking.successful_handovers);
  EXPECT_EQ(a.track.size(), b.track.size());
}

TEST(TankScenario, DifferentSeedsDifferentChannels) {
  TankScenarioParams params;
  params.cols = 8;
  params.speed_hops_per_s = 0.2;
  params.seed = 1;
  const auto a = run_tank_scenario(params);
  params.seed = 2;
  const auto b = run_tank_scenario(params);
  EXPECT_NE(a.medium.bits_sent, b.medium.bits_sent);
}

TEST(TankScenario, ElapsedCoversTraverse) {
  TankScenarioParams params;
  params.cols = 8;
  params.speed_hops_per_s = 0.5;
  const TankRunResult result = run_tank_scenario(params);
  // Path length: field width + 2 margins = 7 + 2*1.5 = 10 units at 0.5 u/s
  // plus 3 s cooldown.
  EXPECT_NEAR(result.elapsed.to_seconds(), 10.0 / 0.5 + 3.0, 0.5);
}

TEST(TankScenario, TrackableCriterion) {
  TankRunResult result;
  result.tracking.distinct_labels = 1;
  result.tracking.tracked_samples = 80;
  result.tracking.total_samples = 100;
  EXPECT_TRUE(result.trackable());
  result.tracking.distinct_labels = 2;
  EXPECT_FALSE(result.trackable());
  result.tracking.distinct_labels = 1;
  result.tracking.tracked_samples = 20;
  EXPECT_FALSE(result.trackable(0.5));
  EXPECT_TRUE(result.trackable(0.1));
}

TEST(TankScenario, CrossTrafficRaisesUtilizationNotEnviroTrackCpu) {
  TankScenarioParams base;
  base.cols = 10;
  base.speed_hops_per_s = 0.2;
  base.seed = 5;
  const TankRunResult quiet = run_tank_scenario(base);

  TankScenarioParams noisy = base;
  CrossTrafficConfig noise;
  noise.senders = 8;
  noise.period = Duration::millis(200);
  noisy.cross_traffic = noise;
  const TankRunResult loud = run_tank_scenario(noisy);

  EXPECT_GT(loud.channel.link_utilization_pct,
            quiet.channel.link_utilization_pct * 2)
      << "cross traffic must load the channel";
  // Cross-traffic frames carry no EnviroTrack handler: they are filtered
  // before the CPU task queue (§6.2's bottleneck-identification logic).
  EXPECT_LT(static_cast<double>(loud.cpu.posted),
            static_cast<double>(quiet.cpu.posted) * 1.3);
}

TEST(TankScenario, AverageChannelReportAverages) {
  TankScenarioParams params;
  params.cols = 8;
  params.speed_hops_per_s = 0.2;
  params.radio.loss_probability = 0.1;
  const auto report = average_channel_report(params, 3);
  EXPECT_GT(report.link_utilization_pct, 0.0);
  EXPECT_GT(report.heartbeat_loss_pct, 0.0);
  EXPECT_LT(report.heartbeat_loss_pct, 60.0);
}

TEST(SpeedSearch, SlowIsTrackableAbsurdIsNot) {
  SpeedSearchParams search;
  search.base.cols = 10;
  search.seeds = 1;
  EXPECT_TRUE(speed_trackable(search, 0.1));
  EXPECT_FALSE(speed_trackable(search, 50.0))
      << "a target faster than any timer can react to must fail";
}

TEST(SpeedSearch, FindsABoundedMaximum) {
  SpeedSearchParams search;
  search.base.cols = 10;
  search.seeds = 1;
  search.lo = 0.1;
  search.hi = 8.0;
  search.resolution = 0.5;
  const double max_speed = find_max_trackable_speed(search);
  EXPECT_GE(max_speed, 0.1);
  EXPECT_LT(max_speed, 8.0);
  // The found maximum should itself be trackable.
  EXPECT_TRUE(speed_trackable(search, max_speed));
}

TEST(SpeedSearch, ZeroWhenEvenLowFails) {
  SpeedSearchParams search;
  search.base.cols = 10;
  search.base.radio.comm_radius = 0.4;  // radio can't even reach neighbours
  search.seeds = 1;
  EXPECT_DOUBLE_EQ(find_max_trackable_speed(search), 0.0);
}

TEST(CrossTraffic, SendersSpreadAcrossField) {
  TankScenarioParams params;
  params.cols = 10;
  params.speed_hops_per_s = 0.3;
  TankScenario scenario(params);
  CrossTrafficConfig config;
  config.senders = 5;
  const auto senders = start_cross_traffic(scenario.system(), config);
  ASSERT_EQ(senders.size(), 5u);
  scenario.run_for(Duration::seconds(5));
  EXPECT_GT(scenario.system()
                .medium()
                .stats()
                .of(radio::MsgType::kCrossTraffic)
                .transmitted,
            50u);
}

}  // namespace
}  // namespace et::scenario
