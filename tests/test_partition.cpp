#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/invariants.hpp"
#include "test_world.hpp"

/// Network-partition faults: the medium split into reachability components,
/// leadership divergence across the split, and epoch-fenced convergence
/// after the heal — all watched by the runtime invariant oracle.
namespace et::test {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::PartitionSpec;
using metrics::InvariantOracle;

/// Nodes whose x coordinate is strictly left of `boundary`.
std::vector<NodeId> nodes_left_of(TestWorld& world, double boundary) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < world.system().node_count(); ++i) {
    const NodeId id{i};
    if (world.system().network().mote(id).position().x < boundary) {
      out.push_back(id);
    }
  }
  return out;
}

PartitionSpec split_at(TestWorld& world, double boundary) {
  PartitionSpec spec;
  spec.components.push_back(nodes_left_of(world, boundary));
  return spec;
}

TEST(Partition, BlocksFramesUntilHealed) {
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);  // group straddles the split boundary
  world.run(3);
  ASSERT_TRUE(world.sole_leader().has_value());

  fault::FaultInjector injector(world.system());
  injector.set_partition(split_at(world, 3.5));
  EXPECT_TRUE(world.system().medium().partitioned());
  EXPECT_FALSE(world.system().medium().same_partition(NodeId{0},
                                                      NodeId{7}));
  world.run(3);
  EXPECT_GT(world.system().medium().stats().totals().pair_blocked_partition,
            0u)
      << "in-range cross-component pairs must be suppressed";

  injector.heal_partition();
  EXPECT_FALSE(world.system().medium().partitioned());
  EXPECT_TRUE(world.system().medium().same_partition(NodeId{0}, NodeId{7}));
  world.run(4);
  EXPECT_TRUE(world.sole_leader().has_value())
      << "tracking must survive a partition/heal cycle";
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_EQ(injector.stats().partition_heals, 1u);
}

TEST(Partition, SplitGroupConvergesAfterHealWithFencing) {
  TestWorld world;
  world.add_blob({3.5, 1.0}, 1.8);
  InvariantOracle oracle(world.system());
  world.run(3);
  const auto original = world.sole_leader();
  ASSERT_TRUE(original.has_value());
  const LabelId label = world.groups(*original).current_label(0);

  fault::FaultInjector injector(world.system());
  injector.set_partition(split_at(world, 3.5));
  world.run(8);  // the leaderless side must take over under its own epoch
  EXPECT_GE(world.leaders().size(), 2u)
      << "both components should track the (still sensed) blob";

  injector.heal_partition();
  world.run(10);
  const auto survivor = world.sole_leader();
  ASSERT_TRUE(survivor.has_value())
      << "exactly one leader must remain after the heal converges";
  EXPECT_EQ(world.groups(*survivor).current_label(0), label)
      << "the label must survive the partition";
  EXPECT_TRUE(oracle.ok()) << oracle.report();
  EXPECT_GT(oracle.checks_run(), 0u);
}

TEST(Partition, BurstPartitionComposesWithBurstLoss) {
  // Chaos composition smoke: square-wave partitions over a Gilbert–Elliott
  // burst-loss channel, with the oracle watching the whole run.
  TestWorld::Options options;
  options.burst_loss.enabled = true;
  options.burst_loss.mean_good = Duration::seconds(2);
  options.burst_loss.mean_bad = Duration::millis(400);
  options.burst_loss.loss_good = 0.02;
  options.burst_loss.loss_bad = 0.6;
  TestWorld world(options);
  world.add_blob({3.5, 1.0}, 1.8);
  InvariantOracle oracle(world.system());

  fault::FaultInjector injector(world.system());
  FaultPlan plan;
  plan.burst_partition(Time::seconds(2), split_at(world, 3.5),
                       Duration::seconds(1), Duration::seconds(1), 3);
  injector.schedule(plan);
  world.run(12);

  EXPECT_EQ(injector.stats().partitions, 3u);
  EXPECT_EQ(injector.stats().partition_heals, 3u);
  EXPECT_FALSE(world.system().medium().partitioned());
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

TEST(Partition, FaultPlanRecordsPartitionTimeline) {
  TestWorld world;
  fault::FaultInjector injector(world.system());

  int partition_records = 0;
  int heal_records = 0;
  injector.add_listener([&](const fault::FaultRecord& record) {
    if (record.kind == FaultKind::kPartitionStart) {
      ++partition_records;
      EXPECT_FALSE(record.node.is_valid())
          << "partitions are network-wide, not per-node";
    }
    if (record.kind == FaultKind::kPartitionHeal) ++heal_records;
  });

  FaultPlan plan;
  plan.partition(Time::seconds(1), split_at(world, 3.5),
                 Duration::seconds(2));
  injector.schedule(plan);

  world.run(0.5);
  EXPECT_FALSE(world.system().medium().partitioned());
  world.run(1.0);
  EXPECT_TRUE(world.system().medium().partitioned());
  world.run(2.0);
  EXPECT_FALSE(world.system().medium().partitioned());

  EXPECT_EQ(partition_records, 1);
  EXPECT_EQ(heal_records, 1);
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_EQ(injector.stats().partition_heals, 1u);

  // Healing an already-whole medium is a no-op, not a second record.
  injector.heal_partition();
  EXPECT_EQ(injector.stats().partition_heals, 1u);
}

}  // namespace
}  // namespace et::test
