#include <gtest/gtest.h>

#include <set>

#include "metrics/invariants.hpp"
#include "test_world.hpp"

/// Negative controls for the invariant oracle: each deliberately-injected
/// protocol failure must trip exactly the invariant built to catch it and
/// no other. Guards against both misses (a violation the oracle waves
/// through) and cross-talk (one failure mode lighting up unrelated
/// detectors, which would make fuzzer verdicts unactionable).
namespace et::test {
namespace {

using metrics::InvariantOracle;
using metrics::InvariantViolation;
using metrics::invariant_kind_name;

std::set<InvariantViolation::Kind> kinds_tripped(
    const InvariantOracle& oracle) {
  std::set<InvariantViolation::Kind> kinds;
  for (const InvariantViolation& violation : oracle.violations()) {
    kinds.insert(violation.kind);
  }
  return kinds;
}

TEST(InvariantNegative, InjectedDualLeaderTripsExactlyDualLeader) {
  // Label fission with epoch fencing disabled: two stimuli start
  // co-located (one group, one label) and drift out of radio range, so two
  // clusters co-lead the inherited label with nothing left to fence them.
  TestWorld::Options options;
  options.rows = 3;
  options.cols = 14;
  options.enable_directory = true;
  options.group.epoch_fencing_enabled = false;
  options.directory.update_period = Duration::millis(500);
  options.cpu.queue_capacity = 64;
  TestWorld world(options);
  InvariantOracle oracle(world.system());

  world.add_moving_blob({5.5, 1.0}, {11.5, 1.0}, 1.0);
  world.add_moving_blob({5.5, 1.0}, {0.5, 1.0}, 1.0);
  world.run(22);

  ASSERT_FALSE(oracle.ok()) << "the injected co-leaders must be caught";
  const std::set<InvariantViolation::Kind> kinds = kinds_tripped(oracle);
  EXPECT_EQ(kinds.size(), 1u) << oracle.report();
  EXPECT_TRUE(kinds.count(InvariantViolation::Kind::kDualLeader))
      << oracle.report();
  EXPECT_STREQ(invariant_kind_name(*kinds.begin()), "dual-leader")
      << "the chaos verdict name the fuzzer reports";
}

TEST(InvariantNegative, InjectedEpochRegressionTripsExactlyThat) {
  // A takeover announced below the label's high-water epoch on a healthy,
  // unpartitioned network — the exact stale-incarnation resurrection the
  // fencing machinery exists to prevent.
  TestWorld::Options options;
  options.enable_directory = true;
  options.enable_transport = true;
  TestWorld world(options);
  InvariantOracle oracle(world.system());
  const LabelId label = LabelId::make(NodeId{1}, 1);

  const auto became_leader = [&](NodeId node, std::uint64_t epoch) {
    core::GroupEvent event{core::GroupEvent::Kind::kBecameLeader,
                           0,
                           world.sim().now(),
                           node,
                           label,
                           NodeId{},
                           0,
                           epoch};
    oracle.on_group_event(event);
  };

  became_leader(NodeId{2}, 7);
  world.run(3.5);  // past the concurrent-takeover churn window
  became_leader(NodeId{3}, 2);  // the injected regression

  ASSERT_FALSE(oracle.ok());
  const std::set<InvariantViolation::Kind> kinds = kinds_tripped(oracle);
  EXPECT_EQ(kinds.size(), 1u) << oracle.report();
  EXPECT_TRUE(kinds.count(InvariantViolation::Kind::kEpochRegression))
      << oracle.report();
  ASSERT_EQ(oracle.violations().size(), 1u)
      << "exactly one regression was injected, exactly one may be flagged";
  EXPECT_STREQ(invariant_kind_name(oracle.violations().front().kind),
               "epoch-regression");
  EXPECT_EQ(oracle.violations().front().label, label);
}

}  // namespace
}  // namespace et::test
