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
                   0,
                   world.sim().now(),
                   node,
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

TEST(Invariants, ViolationTraceKeepsTheLastSixteenEventsInOrder) {
  // Eighteen scripted events end in a duplicate delivery. The violation's
  // trace is the last sixteen of them, oldest first, each line in the
  // oracle's trace format (group events as GroupEvent::to_string).
  TestWorld world(transport_options());
  InvariantOracle oracle(world.system());
  const LabelId label = LabelId::make(NodeId{1}, 1);
  // Times in microseconds.
  const auto group = [&](GroupEvent::Kind kind, std::int64_t at,
                         std::uint64_t node, std::uint64_t epoch = 0) {
    oracle.on_group_event(GroupEvent{kind, 0, Time::micros(at), NodeId{node},
                                     label, NodeId{}, 0, epoch});
  };
  const auto transport = [&](TransportEvent::Kind kind, std::int64_t at,
                             std::uint64_t node, std::uint32_t seq) {
    oracle.on_transport_event(TransportEvent{
        kind, Time::micros(at), NodeId{node}, label, NodeId{2}, seq, 1});
  };
  using G = GroupEvent::Kind;
  using T = TransportEvent::Kind;
  group(G::kLabelCreated, 750, 1);
  group(G::kBecameLeader, 750, 1, 1);
  group(G::kJoined, 1'500, 2);
  transport(T::kSend, 2'000, 2, 7);
  transport(T::kRetransmit, 200'000, 2, 7);
  transport(T::kDelivered, 210'000, 1, 7);
  transport(T::kAcked, 220'000, 2, 7);
  group(G::kLeft, 1'250'000, 2);
  group(G::kTakeover, 2'500'000, 3);
  group(G::kLostLeadership, 2'500'000, 1);
  group(G::kYield, 3'000'000, 4);
  group(G::kRelinquish, 3'500'000, 3);
  group(G::kLabelSuppressed, 4'000'000, 4);
  group(G::kFenced, 4'500'000, 5);
  transport(T::kDuplicate, 5'000'000, 1, 7);
  transport(T::kFailed, 6'000'000, 2, 8);
  transport(T::kResolveFailed, 6'500'000, 2, 9);
  ASSERT_TRUE(oracle.ok()) << oracle.report();
  transport(T::kDelivered, 7'000'000, 1, 7);

  ASSERT_EQ(oracle.violations().size(), 1u);
  const std::vector<std::string> expected = {
      "1.500ms node 2 joined label 4294967297",
      "2.000ms node 2 mtp-send label 4294967297 seq 7",
      "200.000ms node 2 mtp-retransmit label 4294967297 seq 7",
      "210.000ms node 1 mtp-delivered label 4294967297 seq 7",
      "220.000ms node 2 mtp-acked label 4294967297 seq 7",
      "1.250s node 2 left label 4294967297",
      "2.500s node 3 takeover label 4294967297",
      "2.500s node 1 lost-leadership label 4294967297",
      "3.000s node 4 yield label 4294967297",
      "3.500s node 3 relinquish label 4294967297",
      "4.000s node 4 label-suppressed label 4294967297",
      "4.500s node 5 fenced label 4294967297",
      "5.000s node 1 mtp-duplicate label 4294967297 seq 7",
      "6.000s node 2 mtp-failed label 4294967297 seq 8",
      "6.500s node 2 mtp-resolve-failed label 4294967297 seq 9",
      "7.000s node 1 mtp-delivered label 4294967297 seq 7",
  };
  EXPECT_EQ(oracle.violations().front().trace, expected);
}

}  // namespace
}  // namespace et::test
