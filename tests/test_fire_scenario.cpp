#include "scenario/fire.hpp"

#include <gtest/gtest.h>

/// Integration tests of the fire-monitoring application: growing
/// stationary phenomena, concurrent labels, condition-invoked alarms, the
/// directory's global view, and extinction.
namespace et::scenario {
namespace {

TEST(FireScenario, SingleFireRaisesOneAlarm) {
  FireScenarioParams params;
  params.seed = 3;
  FireScenario world(params);
  world.ignite({7.0, 7.0}, Time::origin());
  world.run(30);

  ASSERT_GE(world.alarms().size(), 1u);
  EXPECT_LE(world.alarms().size(), 3u) << "edge-triggered, not periodic";
  const FireEvent& alarm = world.alarms().front();
  EXPECT_GT(alarm.intensity, 120.0);
  EXPECT_NEAR(alarm.seat.x, 7.0, 1.5);
  EXPECT_NEAR(alarm.seat.y, 7.0, 1.5);
}

TEST(FireScenario, CallerIdentityRadiiAboveTheFireFloorAreKept) {
  // Fires grow to ~2.5 units, so the scenario raises both identity radii
  // to at least 4.0; a caller asking for more keeps its value.
  FireScenarioParams params;
  params.group.suppression_radius = 6.0;
  params.group.wait_radius = 6.0;
  FireScenario wide(params);
  const core::GroupConfig& group = wide.system().config().middleware.group;
  EXPECT_EQ(group.suppression_radius, 6.0);
  EXPECT_EQ(group.wait_radius, 6.0);

  FireScenario defaults(FireScenarioParams{});
  const core::GroupConfig& floor =
      defaults.system().config().middleware.group;
  EXPECT_EQ(floor.suppression_radius, 4.0);
  EXPECT_EQ(floor.wait_radius, 4.0);
}

TEST(FireScenario, GrowingFireGrowsItsGroup) {
  FireScenarioParams params;
  params.seed = 5;
  FireScenario world(params);
  world.ignite({7.0, 7.0}, Time::origin(), 1.0, 0.05, 3.0);
  world.run(5);
  std::size_t involved_early = 0;
  for (std::size_t i = 0; i < world.system().node_count(); ++i) {
    if (world.system().stack(NodeId{i}).groups().role(0) !=
        core::Role::kIdle) {
      ++involved_early;
    }
  }
  world.run(35);  // radius 1 -> 3
  std::size_t involved_late = 0;
  for (std::size_t i = 0; i < world.system().node_count(); ++i) {
    if (world.system().stack(NodeId{i}).groups().role(0) !=
        core::Role::kIdle) {
      ++involved_late;
    }
  }
  EXPECT_GT(involved_late, involved_early * 2)
      << "the sensor group must grow with the phenomenon";
  // Still one label despite the growth.
  EXPECT_EQ(world.events().count(core::GroupEvent::Kind::kLabelCreated), 1u);
}

TEST(FireScenario, DirectoryListsAllActiveFires) {
  FireScenarioParams params;
  params.seed = 7;
  FireScenario world(params);
  world.ignite({3.0, 3.0}, Time::origin());
  world.ignite({11.0, 10.0}, Time::seconds(5));
  // Run past the directory TTL so entries of any short-lived spurious
  // label (created in the ignition race, then suppressed) have expired.
  world.run(40);

  const auto fires = world.where_are_the_fires(NodeId{0});
  ASSERT_EQ(fires.size(), 2u);
  // Locations near the two seats, in some order.
  const bool first_near_a = distance(fires[0].location, {3, 3}) < 2.5;
  const auto& near_a = first_near_a ? fires[0] : fires[1];
  const auto& near_b = first_near_a ? fires[1] : fires[0];
  EXPECT_LT(distance(near_a.location, {3, 3}), 2.5);
  EXPECT_LT(distance(near_b.location, {11, 10}), 2.5);
  EXPECT_NE(near_a.label, near_b.label);
}

TEST(FireScenario, ExtinguishedFireLeavesTheDirectory) {
  FireScenarioParams params;
  params.seed = 9;
  FireScenario world(params);
  const TargetId fire = world.ignite({7.0, 7.0}, Time::origin());
  world.run(15);
  ASSERT_EQ(world.where_are_the_fires(NodeId{0}).size(), 1u);

  world.extinguish(fire);
  world.run(30);  // past the directory entry TTL (20 s)
  EXPECT_TRUE(world.where_are_the_fires(NodeId{0}).empty());
  // The group itself dissolved.
  std::size_t involved = 0;
  for (std::size_t i = 0; i < world.system().node_count(); ++i) {
    if (world.system().stack(NodeId{i}).groups().role(0) !=
        core::Role::kIdle) {
      ++involved;
    }
  }
  EXPECT_EQ(involved, 0u);
}

TEST(FireScenario, ReignitionMintsAFreshLabel) {
  FireScenarioParams params;
  params.seed = 11;
  FireScenario world(params);

  auto current_label = [&]() -> std::optional<LabelId> {
    for (const NodeId id : world.system().leaders(0)) {
      auto& groups = world.system().stack(id).groups();
      if (groups.leader_weight(0) > 0) return groups.current_label(0);
    }
    return std::nullopt;
  };

  const TargetId first = world.ignite({7.0, 7.0}, Time::origin());
  world.run(10);
  const auto label_before = current_label();
  ASSERT_TRUE(label_before.has_value());

  world.extinguish(first);
  world.run(15);  // group dissolves, wait memories expire
  EXPECT_FALSE(current_label().has_value());

  world.ignite({7.0, 7.0}, world.sim().now());
  world.run(10);
  const auto label_after = current_label();
  ASSERT_TRUE(label_after.has_value());
  EXPECT_NE(*label_after, *label_before)
      << "a re-appearing phenomenon is a new entity, not the old label";
}

TEST(FireScenario, AlarmRespectsThreshold) {
  FireScenarioParams params;
  params.alarm_threshold = 1e9;  // unreachable
  params.seed = 13;
  FireScenario world(params);
  world.ignite({7.0, 7.0}, Time::origin());
  world.run(20);
  EXPECT_TRUE(world.alarms().empty());
}

}  // namespace
}  // namespace et::scenario
