#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/recovery.hpp"
#include "scenario/tank.hpp"
#include "test_world.hpp"

/// Fault-injection tests: node crashes at every protocol role, repeated
/// leader assassination, and partial-deployment deaths. The middleware's
/// design goal — "applications must not depend on the correctness or
/// availability of any particular node" (§2) — is the property under test.
namespace et::test {
namespace {

using core::GroupEvent;

TEST(FailureInjection, RepeatedLeaderAssassination) {
  // Kill every leader as soon as it emerges; the label must survive as
  // long as live sensing members remain.
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);  // big group: many members
  world.run(4);

  LabelId label;
  {
    const auto leader = world.sole_leader();
    ASSERT_TRUE(leader.has_value());
    label = world.groups(*leader).current_label(0);
  }

  int kills = 0;
  for (int round = 0; round < 3; ++round) {
    const auto leader = world.sole_leader();
    if (!leader) break;
    world.system().crash_node(*leader);
    ++kills;
    world.run(4);  // takeover window
  }
  ASSERT_EQ(kills, 3);
  const auto survivor = world.sole_leader();
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(world.groups(*survivor).current_label(0), label)
      << "the label must outlive three consecutive leader crashes";
  EXPECT_GE(world.events().count(GroupEvent::Kind::kTakeover), 3u);
  EXPECT_EQ(world.events().count(GroupEvent::Kind::kLabelCreated), 1u);
}

TEST(FailureInjection, MemberCrashOnlyThinsTheGroup) {
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);
  world.run(4);
  const auto leader = world.sole_leader();
  ASSERT_TRUE(leader.has_value());
  const auto members = world.members();
  ASSERT_GE(members.size(), 2u);

  world.system().crash_node(members.front());
  world.run(4);
  // Leadership unaffected; aggregate state still satisfied by the rest.
  EXPECT_EQ(world.sole_leader(), leader);
  auto* agg = world.groups(*leader).aggregates(0);
  ASSERT_NE(agg, nullptr);
  EXPECT_TRUE(agg->read("where", world.sim().now()).has_value());
}

TEST(FailureInjection, CriticalMassLostWhenTooManyDie) {
  TestWorld::Options options;
  options.critical_mass = 3;
  TestWorld world(options);
  world.add_blob({3.5, 1.0}, 1.5);
  world.run(4);
  const auto leader = world.sole_leader();
  ASSERT_TRUE(leader.has_value());
  ASSERT_TRUE(world.groups(*leader)
                  .aggregates(0)
                  ->read("where", world.sim().now())
                  .has_value());

  // Kill all members: the leader alone cannot reach N_e = 3.
  for (NodeId member : world.members()) {
    world.system().crash_node(member);
  }
  world.run(3);
  const auto survivor = world.sole_leader();
  if (survivor) {
    auto* agg = world.groups(*survivor).aggregates(0);
    ASSERT_NE(agg, nullptr);
    EXPECT_FALSE(agg->read("where", world.sim().now()).has_value())
        << "reads must turn null once critical mass is unreachable";
  }
}

TEST(FailureInjection, WholeGroupDeathEndsTracking) {
  TestWorld world;
  world.add_blob({3.5, 1.0});
  world.run(4);
  std::vector<NodeId> involved = world.leaders();
  for (NodeId m : world.members()) involved.push_back(m);
  ASSERT_FALSE(involved.empty());
  for (NodeId node : involved) world.system().crash_node(node);
  world.run(5);
  // Remaining motes do not sense the blob: nothing tracks it, and nothing
  // crashes in the process.
  EXPECT_TRUE(world.leaders().empty());
}

TEST(FailureInjection, RecoveryAfterGroupDeath) {
  // After the whole group dies, a *newly sensing* node (target moves on)
  // legitimately mints a fresh label.
  TestWorld::Options options;
  options.cols = 12;
  TestWorld world(options);
  world.add_moving_blob({-0.5, 1.0}, {12.0, 1.0}, 0.25);
  world.run(6);
  std::vector<NodeId> involved = world.leaders();
  for (NodeId m : world.members()) involved.push_back(m);
  for (NodeId node : involved) world.system().crash_node(node);

  world.run(20);  // the target reaches fresh, living motes
  EXPECT_FALSE(world.leaders().empty())
      << "tracking must resume once living motes sense the target";
  // Either a fringe node with wait-timer memory revives the old label, or
  // a fresh label is minted; both are valid recoveries.
  EXPECT_GE(world.events().count(GroupEvent::Kind::kLabelCreated), 1u);
}

TEST(FailureInjection, CrashDuringTakeoverWindow) {
  // Kill the leader, then kill the first successor mid-handover: the
  // third node in line must still recover the label.
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);
  world.run(4);
  const auto first = world.sole_leader();
  ASSERT_TRUE(first.has_value());
  const LabelId label = world.groups(*first).current_label(0);

  world.system().crash_node(*first);
  world.run(1.2);  // inside the 2.1 x 0.5 s receive-timer window
  // Kill whoever is about to take over (any member).
  const auto members = world.members();
  ASSERT_FALSE(members.empty());
  world.system().crash_node(members.front());
  world.run(6);

  const auto survivor = world.sole_leader();
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(world.groups(*survivor).current_label(0), label);
}

/// Sweep: kill a random subset of the deployment and verify the system
/// neither crashes nor violates label uniqueness afterwards.
class RandomCullSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomCullSweep, SurvivesRandomNodeDeaths) {
  TestWorld::Options options;
  options.cols = 10;
  options.seed = static_cast<std::uint64_t>(GetParam()) * 31 + 7;
  TestWorld world(options);
  world.add_blob({4.5, 1.0}, 1.6);
  world.run(4);

  Rng rng(options.seed);
  for (std::size_t i = 0; i < world.system().node_count(); ++i) {
    if (rng.chance(0.3)) world.system().crash_node(NodeId{i});
  }
  world.run(8);

  // Uniqueness among established leaders.
  std::map<LabelId, int> per_label;
  for (NodeId leader : world.leaders()) {
    if (world.groups(leader).leader_weight(0) > 0) {
      per_label[world.groups(leader).current_label(0)]++;
    }
  }
  for (const auto& [label, count] : per_label) {
    EXPECT_LE(count, 1) << "duplicate established leaders after cull";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCullSweep, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Crash *and reboot*: the fault injector's full round-trip semantics.
// ---------------------------------------------------------------------------

TEST(FailureInjection, CrashThenRebootAtEveryRole) {
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);
  world.run(4);
  fault::FaultInjector injector(world.system());

  const auto first_leader = world.sole_leader();
  ASSERT_TRUE(first_leader.has_value());
  const LabelId label = world.groups(*first_leader).current_label(0);

  // Round 1: the leader. Takeover keeps the label; the rebooted ex-leader
  // still senses the blob, so it must rejoin from a blank slate.
  injector.crash(*first_leader);
  world.run(1.5);
  injector.reboot(*first_leader);
  world.run(4);
  {
    const auto cur = world.sole_leader();
    ASSERT_TRUE(cur.has_value());
    EXPECT_EQ(world.groups(*cur).current_label(0), label);
    EXPECT_TRUE(world.groups(*first_leader).alive());
    EXPECT_NE(world.groups(*first_leader).role(0), core::Role::kIdle)
        << "a rebooted sensing node must rejoin the group";
  }

  // Round 2: a member.
  const auto members = world.members();
  ASSERT_FALSE(members.empty());
  const NodeId member = members.front();
  injector.crash(member);
  world.run(1.5);
  injector.reboot(member);
  world.run(4);
  {
    const auto cur = world.sole_leader();
    ASSERT_TRUE(cur.has_value());
    EXPECT_EQ(world.groups(*cur).current_label(0), label);
    EXPECT_NE(world.groups(member).role(0), core::Role::kIdle);
  }

  // Round 3: an idle bystander — a non-event for the group.
  std::optional<NodeId> idle;
  for (std::size_t i = 0; i < world.system().node_count(); ++i) {
    if (world.groups(NodeId{i}).role(0) == core::Role::kIdle) {
      idle = NodeId{i};
      break;
    }
  }
  ASSERT_TRUE(idle.has_value());
  injector.crash(*idle);
  world.run(1.5);
  injector.reboot(*idle);
  world.run(2);
  {
    const auto cur = world.sole_leader();
    ASSERT_TRUE(cur.has_value());
    EXPECT_EQ(world.groups(*cur).current_label(0), label);
    EXPECT_EQ(world.groups(*idle).role(0), core::Role::kIdle);
    EXPECT_TRUE(world.groups(*idle).alive());
  }

  EXPECT_EQ(injector.stats().crashes, 3u);
  EXPECT_EQ(injector.stats().reboots, 3u);
}

TEST(FailureInjection, RebootDuringRelinquishElection) {
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);
  world.run(4);
  const auto leader = world.sole_leader();
  ASSERT_TRUE(leader.has_value());
  const LabelId label = world.groups(*leader).current_label(0);
  fault::FaultInjector injector(world.system());

  // The leader loses its sensor → deactivation → relinquish broadcast;
  // candidates campaign. A candidate crashes mid-election and comes back.
  injector.set_sensor_dropout(*leader, true);
  world.run(0.4);
  const auto members = world.members();
  ASSERT_FALSE(members.empty());
  const NodeId candidate = members.front();
  injector.crash(candidate);
  world.run(0.5);
  injector.reboot(candidate);
  world.run(4);

  const auto successor = world.sole_leader();
  ASSERT_TRUE(successor.has_value());
  EXPECT_NE(*successor, *leader) << "no sensing, no leading";
  EXPECT_EQ(world.groups(*successor).current_label(0), label)
      << "the label must survive a reboot landing inside the election";
}

TEST(FailureInjection, BlackoutOutlastingReceiveTimerHealsOnReturn) {
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);
  world.run(4);
  const auto leader = world.sole_leader();
  ASSERT_TRUE(leader.has_value());
  const LabelId label = world.groups(*leader).current_label(0);
  fault::FaultInjector injector(world.system());

  // Mute the leader's radio both ways for longer than the members'
  // receive timeout (2.1 x 0.5 s): they must take over. When the radio
  // returns, the duelling leaders must resolve back to one.
  fault::FaultPlan plan;
  plan.radio_blackout(world.sim().now() + Duration::millis(10), *leader,
                      Duration::seconds(3));
  injector.schedule(plan);
  world.run(2);
  EXPECT_GE(world.events().count(GroupEvent::Kind::kTakeover), 1u);

  world.run(6);  // blackout long over; yield-by-weight settles the duel
  const auto survivor = world.sole_leader();
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(world.groups(*survivor).current_label(0), label);
  EXPECT_EQ(injector.stats().blackouts, 1u);
}

TEST(FailureInjection, SensorDropoutRelinquishesAndRecovers) {
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);
  world.run(4);
  const auto leader = world.sole_leader();
  ASSERT_TRUE(leader.has_value());
  const LabelId label = world.groups(*leader).current_label(0);
  fault::FaultInjector injector(world.system());

  fault::FaultPlan plan;
  plan.sensor_dropout(world.sim().now(), *leader, Duration::seconds(3));
  injector.schedule(plan);
  world.run(2);
  EXPECT_NE(world.groups(*leader).role(0), core::Role::kLeader)
      << "a leader that stopped sensing must relinquish";
  EXPECT_GE(world.events().count(GroupEvent::Kind::kRelinquish), 1u);

  world.run(4);  // sensor back after 3 s; the node re-engages
  const auto successor = world.sole_leader();
  ASSERT_TRUE(successor.has_value());
  EXPECT_EQ(world.groups(*successor).current_label(0), label);
  EXPECT_NE(world.groups(*leader).role(0), core::Role::kIdle)
      << "once the sensor recovers the node must rejoin the group";
  EXPECT_EQ(injector.stats().sensor_dropouts, 1u);
}

TEST(FailureInjection, RebootIsIdempotentWithinOneTick) {
  // Two reboot faults landing on the same node at the same instant (easy
  // to produce with overlapping fault plans) must apply exactly once: the
  // second sees a live node and is a no-op, not a double re-init.
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);
  world.run(4);
  const auto leader = world.sole_leader();
  ASSERT_TRUE(leader.has_value());
  const LabelId label = world.groups(*leader).current_label(0);
  fault::FaultInjector injector(world.system());

  injector.crash(*leader);
  world.run(1.5);
  injector.reboot(*leader);
  injector.reboot(*leader);  // same tick: must be swallowed
  EXPECT_EQ(injector.stats().reboots, 1u);
  ASSERT_EQ(injector.records().size(), 2u);  // one crash + one reboot

  world.run(4);
  const auto survivor = world.sole_leader();
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(world.groups(*survivor).current_label(0), label);
  EXPECT_TRUE(world.groups(*leader).alive());
  EXPECT_NE(world.groups(*leader).role(0), core::Role::kIdle)
      << "the doubly-rebooted node must come back exactly like a single "
         "reboot";

  // A reboot aimed at a node that was never down is likewise a no-op.
  injector.reboot(NodeId{0});
  EXPECT_EQ(injector.stats().reboots, 1u);
}

TEST(FailureInjection, RebootDuringBlackoutRecoversAfterRadioReturns) {
  // A node that reboots while its RF is blacked out comes up deaf: it
  // must neither wedge nor corrupt the group, and must rejoin cleanly
  // once the radio returns.
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);
  world.run(4);
  const auto leader = world.sole_leader();
  ASSERT_TRUE(leader.has_value());
  const LabelId label = world.groups(*leader).current_label(0);
  fault::FaultInjector injector(world.system());

  injector.crash(*leader);
  injector.set_radio_blackout(*leader, true);
  world.run(2);  // the rest of the group takes the label over
  injector.reboot(*leader);  // reboots into the blackout
  world.run(2);
  EXPECT_TRUE(world.groups(*leader).alive());

  injector.set_radio_blackout(*leader, false);
  world.run(6);
  const auto survivor = world.sole_leader();
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(world.groups(*survivor).current_label(0), label)
      << "the label must survive a reboot that lands inside a blackout";
  EXPECT_NE(world.groups(*leader).role(0), core::Role::kIdle)
      << "the node must rejoin once it can hear heartbeats again";
  EXPECT_EQ(injector.stats().reboots, 1u);
  EXPECT_EQ(injector.stats().blackouts, 1u);
}

// ---------------------------------------------------------------------------
// Chaos soaks on the tank scenario: burst loss + periodic leader murder.
// ---------------------------------------------------------------------------

TEST(FailureInjection, ChaosTankRunIsDeterministic) {
  auto run_once = [] {
    scenario::TankScenarioParams params;
    params.rows = 3;
    params.cols = 10;
    params.speed_hops_per_s = 1.5;
    params.radio.burst_loss.enabled = true;
    params.seed = 21;
    scenario::TankScenario scenario(params);
    fault::FaultInjector injector(scenario.system());
    metrics::RecoveryMonitor recovery(scenario.system(), injector,
                                      Duration::millis(100));
    injector.harass_leaders(scenario.tracker_type(), Duration::seconds(3),
                            Duration::seconds(1));
    const scenario::TankRunResult result = scenario.run();
    return std::tuple(
        scenario.sim().events_fired(), result.tracking.distinct_labels,
        result.track_labels, injector.stats().crashes,
        injector.stats().reboots, recovery.stats().leader_faults,
        recovery.stats().recoveries, recovery.tracking_gap_seconds(),
        recovery.mean_takeover_seconds());
  };
  EXPECT_EQ(run_once(), run_once())
      << "identical seeds must give bit-identical chaos runs";
}

TEST(FailureInjection, HarassedTankUnderBurstLossKeepsTracking) {
  // The acceptance soak: tank traverse with Gilbert–Elliott loss and the
  // tracker leader crashed (then rebooted) every 6 seconds. The original
  // label must survive every handover and the track must stay useful.
  scenario::TankScenarioParams params;
  params.rows = 3;
  params.cols = 12;
  params.speed_hops_per_s = 1.0;
  params.group.heartbeat_period = Duration::seconds(0.25);
  params.radio.burst_loss.enabled = true;
  params.seed = 11;
  scenario::TankScenario scenario(params);
  fault::FaultInjector injector(scenario.system());
  metrics::RecoveryMonitor recovery(scenario.system(), injector,
                                    Duration::millis(100));
  injector.harass_leaders(scenario.tracker_type(), Duration::seconds(6),
                          Duration::seconds(1));
  const scenario::TankRunResult result = scenario.run();

  EXPECT_GE(recovery.stats().leader_faults, 1u);
  EXPECT_GE(recovery.stats().recoveries, 1u);
  EXPECT_EQ(result.tracking.distinct_labels, 1u)
      << "the original label must survive crash+reboot chaos";
  EXPECT_GT(result.tracking.tracked_fraction(), 0.5);
  EXPECT_LT(recovery.mean_takeover_seconds(), 2.0)
      << "takeover latency is bounded by the 2.1 x HB receive timer";
}

TEST(FailureInjection, LeadersMatchARoleScanThroughHarassment) {
  // EnviroTrackSystem::leaders() is where the metrics layer and the fault
  // injector ask who leads. Sampled every 100 ms through a harassed run,
  // it must equal a per-node role() scan and never list a crashed leader.
  scenario::TankScenarioParams params;
  params.rows = 3;
  params.cols = 12;
  params.speed_hops_per_s = 1.0;
  params.group.heartbeat_period = Duration::seconds(0.25);
  params.radio.burst_loss.enabled = true;
  params.seed = 11;
  scenario::TankScenario scenario(params);
  core::EnviroTrackSystem& system = scenario.system();
  const core::TypeIndex type = scenario.tracker_type();
  fault::FaultInjector injector(system);
  std::set<std::uint64_t> down_leaders;  // crashed while leading, not back
  injector.add_listener([&](const fault::FaultRecord& record) {
    if (record.kind == fault::FaultKind::kCrash && record.was_leader) {
      down_leaders.insert(record.node.value());
    } else if (record.kind == fault::FaultKind::kReboot) {
      down_leaders.erase(record.node.value());
    }
  });
  injector.harass_leaders(type, Duration::seconds(3), Duration::seconds(1));

  std::size_t led_samples = 0;
  std::size_t down_samples = 0;
  system.sim().schedule_periodic(
      Duration::millis(100), Duration::millis(100), [&] {
        std::vector<NodeId> scan;
        for (std::size_t i = 0; i < system.node_count(); ++i) {
          if (system.stack(NodeId{i}).groups().role(type) ==
              core::Role::kLeader) {
            scan.push_back(NodeId{i});
          }
        }
        const std::vector<NodeId> leaders = system.leaders(type);
        EXPECT_EQ(leaders, scan) << "at " << system.sim().now().to_string();
        for (const NodeId id : leaders) {
          EXPECT_EQ(down_leaders.count(id.value()), 0u)
              << "crashed leader " << id.value() << " listed at "
              << system.sim().now().to_string();
        }
        if (!leaders.empty()) ++led_samples;
        if (!down_leaders.empty()) ++down_samples;
      });
  scenario.run();

  EXPECT_GE(injector.stats().leader_crashes, 2u);
  EXPECT_GT(led_samples, 0u);
  EXPECT_GT(down_samples, 0u)
      << "some samples must fall inside a crashed leader's downtime";
}

TEST(FailureInjection, ConcurrentLeaderCrashesPairTakeoversByLabel) {
  // Regression: with two leaders of the same context type crashed at once,
  // the recovery monitor used to pair a takeover with the *oldest* open
  // gap of the type, ignoring labels. A takeover that kept target B's
  // label would close target A's gap and grade as "label replaced" —
  // corrupting both continuity and takeover-time statistics.
  //
  // Blob A is sensed by exactly one mote (tiny radius centred on node 1),
  // so once its leader dies nobody can take over: its gap must stay open.
  // Blob B is sensed by exactly two motes — (6,0) and (6,1) — so the crash
  // leaves exactly one member, whose single takeover preserves the label.
  TestWorld world;
  fault::FaultInjector injector(world.system());
  metrics::RecoveryMonitor recovery(world.system(), injector,
                                    Duration::millis(100));
  world.add_blob({1.0, 0.0}, 0.3);
  world.add_blob({6.0, 0.5}, 1.0);
  world.run(3);

  const auto leaders = world.leaders();
  ASSERT_EQ(leaders.size(), 2u) << "one leader per blob";
  NodeId a_leader, b_leader;
  for (const NodeId n : leaders) {
    if (distance(world.field().position(n), Vec2{1.0, 0.0}) < 0.5) {
      a_leader = n;
    } else {
      b_leader = n;
    }
  }
  ASSERT_TRUE(a_leader.is_valid());
  ASSERT_TRUE(b_leader.is_valid());
  const LabelId a_label = world.groups(a_leader).current_label(0);
  const LabelId b_label = world.groups(b_leader).current_label(0);
  ASSERT_NE(a_label, b_label);

  // A's gap opens first (the older gap — the one the buggy pairing ate).
  injector.crash(a_leader);
  world.run(0.2);
  injector.crash(b_leader);
  world.run(4);

  EXPECT_EQ(recovery.stats().leader_faults, 2u);
  ASSERT_EQ(recovery.stats().recoveries, 1u)
      << "only B's group has members able to take over";
  EXPECT_EQ(recovery.stats().label_preserved, 1u)
      << "B's takeover kept B's label and must be paired with B's gap";
  EXPECT_EQ(recovery.stats().label_replaced, 0u)
      << "nothing answered A's gap, so nothing may grade as replaced";
  EXPECT_LT(recovery.mean_takeover_seconds(), 2.0)
      << "takeover time must be measured against B's gap, not A's older one";

  const auto survivor = world.sole_leader();
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(world.groups(*survivor).current_label(0), b_label);
}

}  // namespace
}  // namespace et::test
