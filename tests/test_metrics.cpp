#include <gtest/gtest.h>

#include <cmath>

#include "metrics/channel_report.hpp"
#include "metrics/event_log.hpp"
#include "metrics/track_recorder.hpp"
#include "test_world.hpp"

namespace et::test {
namespace {

using core::GroupEvent;

// --- EventLog ---

TEST(EventLog, CountsByKind) {
  metrics::EventLog log;
  GroupEvent event{};
  event.kind = GroupEvent::Kind::kJoined;
  log.on_group_event(event);
  log.on_group_event(event);
  event.kind = GroupEvent::Kind::kLeft;
  log.on_group_event(event);

  EXPECT_EQ(log.count(GroupEvent::Kind::kJoined), 2u);
  EXPECT_EQ(log.count(GroupEvent::Kind::kLeft), 1u);
  EXPECT_EQ(log.count(GroupEvent::Kind::kYield), 0u);
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.events_of(GroupEvent::Kind::kJoined).size(), 2u);
}

TEST(EventLog, BoundedRetention) {
  metrics::EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    GroupEvent event{};
    event.kind = GroupEvent::Kind::kJoined;
    event.weight = static_cast<std::uint64_t>(i);
    log.on_group_event(event);
  }
  EXPECT_EQ(log.total(), 10u) << "counters keep counting past capacity";
  const auto events = log.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().weight, 6u) << "oldest retained is #6";
  EXPECT_EQ(events.back().weight, 9u);
}

TEST(EventLog, Clear) {
  metrics::EventLog log;
  GroupEvent event{};
  event.kind = GroupEvent::Kind::kJoined;
  log.on_group_event(event);
  log.clear();
  EXPECT_EQ(log.total(), 0u);
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLog, EventToString) {
  GroupEvent event{};
  event.kind = GroupEvent::Kind::kTakeover;
  event.node = NodeId{7};
  event.label = LabelId::make(NodeId{1}, 2);
  event.time = Time::seconds(3);
  const std::string s = event.to_string();
  EXPECT_NE(s.find("takeover"), std::string::npos);
  EXPECT_NE(s.find("node 7"), std::string::npos);
}

// --- ChannelReport ---

TEST(ChannelReport, ComputedFromMediumStats) {
  radio::MediumStats stats;
  stats.bits_sent = 50'000;  // one full second of the 50 kb/s channel
  auto& hb = stats.of(radio::MsgType::kHeartbeat);
  hb.transmitted = 100;
  hb.pair_attempts = 200;
  hb.pair_delivered = 150;
  auto& rep = stats.of(radio::MsgType::kReport);
  rep.transmitted = 50;
  rep.pair_attempts = 50;
  rep.pair_delivered = 40;

  const auto report = metrics::ChannelReport::from(
      stats, Duration::seconds(2), 50'000.0);
  EXPECT_NEAR(report.heartbeat_loss_pct, 25.0, 1e-9);
  EXPECT_NEAR(report.report_loss_pct, 20.0, 1e-9);
  EXPECT_NEAR(report.link_utilization_pct, 50.0, 1e-9);
  EXPECT_NE(report.to_string().find("HB loss 25.00%"), std::string::npos);
}

TEST(ChannelReport, EmptyStatsReadZero) {
  const auto report = metrics::ChannelReport::from(
      radio::MediumStats{}, Duration::seconds(1), 50'000.0);
  EXPECT_EQ(report.heartbeat_loss_pct, 0.0);
  EXPECT_EQ(report.link_utilization_pct, 0.0);
}

// --- TrackRecorder ---

TEST(TrackRecorder, RecordsOnlyMatchingTag) {
  TestWorld::Options options;
  options.mutate_spec = [](core::ContextTypeSpec& spec) {
    core::ObjectSpec reporter;
    reporter.name = "r";
    core::MethodSpec good;
    good.name = "track";
    good.invocation.kind = core::InvocationSpec::Kind::kTimer;
    good.invocation.period = Duration::seconds(1);
    good.body = [](core::TrackingContext& ctx) {
      if (auto where = ctx.read_vector("where")) {
        ctx.send_to_node(NodeId{0}, "track", {where->x, where->y});
      }
    };
    core::MethodSpec noise;
    noise.name = "noise";
    noise.invocation.kind = core::InvocationSpec::Kind::kTimer;
    noise.invocation.period = Duration::seconds(1);
    noise.body = [](core::TrackingContext& ctx) {
      ctx.send_to_node(NodeId{0}, "chatter", {1.0});
    };
    reporter.methods.push_back(std::move(good));
    reporter.methods.push_back(std::move(noise));
    spec.objects.push_back(std::move(reporter));
  };
  TestWorld world(options);
  const TargetId target = world.add_blob({3.5, 1.0});
  metrics::TrackRecorder recorder(world.system(), NodeId{0}, target);
  world.run(8);

  ASSERT_GE(recorder.report_count(), 5u);
  EXPECT_EQ(recorder.distinct_labels(), 1u);
  EXPECT_LT(recorder.mean_error(), 1.2);
  EXPECT_GE(recorder.max_error(), recorder.mean_error());
  for (const auto& point : recorder.points()) {
    EXPECT_NEAR(point.actual.x, 3.5, 1e-9) << "stationary ground truth";
  }
}

TEST(TrackRecorder, EmptyTrackErrorIsNaNNotZero) {
  // Regression: mean_error()/max_error() used to return 0.0 for an empty
  // track — indistinguishable from a perfect track, so a run where the
  // base station heard *nothing* graded as flawless. No data is NaN.
  TestWorld world;
  // A blob far off-grid: exists as ground truth, is never sensed, so the
  // base station never hears a single report.
  const TargetId target = world.add_blob({100.0, 100.0}, 0.01);
  metrics::TrackRecorder recorder(world.system(), NodeId{0}, target);
  world.run(3);
  ASSERT_EQ(recorder.report_count(), 0u);
  EXPECT_TRUE(std::isnan(recorder.mean_error()))
      << "empty track must not grade as a perfect (0-error) track";
  EXPECT_TRUE(std::isnan(recorder.max_error()));
}

}  // namespace
}  // namespace et::test
