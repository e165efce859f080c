#include "metrics/invariants.hpp"

#include <gtest/gtest.h>

#include "test_world.hpp"

/// Unit tests for the runtime protocol-invariant oracle: each detector is
/// driven with synthetic events so violations (and legal near-misses) are
/// exercised deterministically. End-to-end oracle coverage lives in
/// test_partition.cpp and test_reliable_transport.cpp.
namespace et::test {
namespace {

using core::GroupEvent;
using core::TransportEvent;
using metrics::InvariantOracle;
using metrics::InvariantViolation;

TestWorld::Options transport_options() {
  TestWorld::Options options;
  options.enable_directory = true;
  options.enable_transport = true;
  return options;
}

TransportEvent delivered(TestWorld& world, NodeId node, LabelId label,
                         NodeId origin, std::uint32_t seq) {
  return TransportEvent{TransportEvent::Kind::kDelivered,
                        world.sim().now(),
                        node,
                        label,
                        origin,
                        seq,
                        0};
}

GroupEvent became_leader(TestWorld& world, NodeId node, LabelId label,
                         std::uint64_t epoch) {
  GroupEvent event{GroupEvent::Kind::kBecameLeader,
                   world.sim().now(),
                   node,
                   0,
                   label,
                   NodeId{},
                   0,
                   epoch};
  return event;
}

TEST(Invariants, CleanRunReportsAllHeld) {
  TestWorld world(transport_options());
  InvariantOracle oracle(world.system());
  world.add_blob({3.5, 1.0});
  world.run(3);
  EXPECT_TRUE(oracle.ok());
  EXPECT_GT(oracle.checks_run(), 0u);
  EXPECT_NE(oracle.report().find("all invariants held"), std::string::npos);
}

TEST(Invariants, DuplicateDeliveryFlagged) {
  TestWorld world(transport_options());
  InvariantOracle oracle(world.system());
  const LabelId label = LabelId::make(NodeId{1}, 1);

  const TransportEvent event =
      delivered(world, NodeId{3}, label, NodeId{1}, 7);
  oracle.on_transport_event(event);
  EXPECT_TRUE(oracle.ok()) << "first delivery is legal";
  oracle.on_transport_event(event);

  ASSERT_FALSE(oracle.ok());
  ASSERT_EQ(oracle.violations().size(), 1u);
  const InvariantViolation& violation = oracle.violations().front();
  EXPECT_EQ(violation.kind, InvariantViolation::Kind::kDuplicateDelivery);
  EXPECT_EQ(violation.label, label);
  EXPECT_FALSE(violation.trace.empty())
      << "a violation must carry its event trace";
  EXPECT_NE(oracle.report().find("duplicate-delivery"), std::string::npos);
}

TEST(Invariants, DistinctReceiversAndSequencesAreLegal) {
  TestWorld world(transport_options());
  InvariantOracle oracle(world.system());
  const LabelId label = LabelId::make(NodeId{1}, 1);

  // Same transfer on two receivers (leadership migrated mid-flight) and
  // two sequences on one receiver: both at-least-once outcomes, not bugs.
  oracle.on_transport_event(delivered(world, NodeId{3}, label, NodeId{1}, 7));
  oracle.on_transport_event(delivered(world, NodeId{4}, label, NodeId{1}, 7));
  oracle.on_transport_event(delivered(world, NodeId{3}, label, NodeId{1}, 8));
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

TEST(Invariants, FireAndForgetDeliveriesNotDeduped) {
  TestWorld world(transport_options());
  InvariantOracle oracle(world.system());
  const LabelId label = LabelId::make(NodeId{1}, 1);

  // seq 0 = fire-and-forget: no uniqueness promise, repeated dispatch of
  // indistinguishable sends must not be flagged.
  const TransportEvent event =
      delivered(world, NodeId{3}, label, NodeId{1}, 0);
  oracle.on_transport_event(event);
  oracle.on_transport_event(event);
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

TEST(Invariants, RetryBudgetOverrunFlagged) {
  TestWorld world(transport_options());
  InvariantOracle oracle(world.system());
  const LabelId label = LabelId::make(NodeId{1}, 1);
  const int budget = core::Transport::kMaxRetries;

  TransportEvent event{TransportEvent::Kind::kRetransmit,
                       world.sim().now(),
                       NodeId{0},
                       label,
                       NodeId{0},
                       5,
                       budget};
  oracle.on_transport_event(event);
  EXPECT_TRUE(oracle.ok()) << "the budget itself is legal";

  event.attempt = budget + 1;
  oracle.on_transport_event(event);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.violations().front().kind,
            InvariantViolation::Kind::kRetryBudgetExceeded);
}

TEST(Invariants, EpochRegressionFlaggedOnWholeNetwork) {
  TestWorld world(transport_options());
  InvariantOracle oracle(world.system());
  const LabelId label = LabelId::make(NodeId{1}, 1);

  oracle.on_group_event(became_leader(world, NodeId{2}, label, 5));
  oracle.on_group_event(became_leader(world, NodeId{3}, label, 5));
  EXPECT_TRUE(oracle.ok()) << "same-epoch succession is legal";

  oracle.on_group_event(became_leader(world, NodeId{4}, label, 3));
  EXPECT_TRUE(oracle.ok())
      << "a stale election while the high water is being contested is "
         "concurrent takeover churn, not a regression";

  world.run(3.5);  // churn window over; the high water is settled
  oracle.on_group_event(became_leader(world, NodeId{4}, label, 3));
  ASSERT_FALSE(oracle.ok());
  const InvariantViolation& violation = oracle.violations().front();
  EXPECT_EQ(violation.kind, InvariantViolation::Kind::kEpochRegression);
  EXPECT_NE(violation.detail.find("high-water epoch 5"), std::string::npos);
}

TEST(Invariants, EpochRegressionSuppressedWhilePartitioned) {
  TestWorld world(transport_options());
  InvariantOracle oracle(world.system());
  const LabelId label = LabelId::make(NodeId{1}, 1);

  oracle.on_group_event(became_leader(world, NodeId{2}, label, 5));

  // During a split, the minority side legitimately elects at a stale
  // epoch; the check stays suspended until one settle window post-heal.
  std::vector<std::uint32_t> component_of(world.system().node_count(), 0);
  component_of[0] = 1;
  world.system().medium().set_partition(component_of);
  world.run(0.5);  // scans observe the split
  oracle.on_group_event(became_leader(world, NodeId{4}, label, 3));
  EXPECT_TRUE(oracle.ok()) << oracle.report();

  world.system().medium().clear_partition();
  world.run(0.5);  // scans observe the heal; settle window opens
  oracle.on_group_event(became_leader(world, NodeId{5}, label, 3));
  EXPECT_TRUE(oracle.ok())
      << "convergence churn right after the heal is the fence's job";

  world.run(2.5);  // settle window over
  oracle.on_group_event(became_leader(world, NodeId{6}, label, 3));
  EXPECT_FALSE(oracle.ok())
      << "a stale takeover on a settled, whole network is a real bug";
}

}  // namespace
}  // namespace et::test
