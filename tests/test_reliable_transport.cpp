#include "core/transport.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "metrics/invariants.hpp"
#include "test_world.hpp"

/// Reliability-layer tests: acked end-to-end delivery, retransmission
/// through connectivity gaps, receiver-side duplicate suppression, the
/// bounded retry budget with its delivery_failed callback, the negative
/// resolution cache, and the fire-and-forget ablation mode.
namespace et::test {
namespace {

/// MtpWorld variant (see test_transport.cpp) with a tweakable Options
/// hook, so individual tests can flip transport knobs (reliable mode off,
/// shorter budgets) before the system starts.
struct RelWorld {
  explicit RelWorld(
      std::function<void(TestWorld::Options&)> tweak = {}) {
    TestWorld::Options options;
    options.rows = 5;
    options.cols = 12;
    options.enable_directory = true;
    options.enable_transport = true;

    core::ContextTypeSpec station;
    station.name = "station";
    station.activation = "station_sensor";
    station.variables.push_back(core::AggregateVarSpec{
        "level", "avg", "magnetic", Duration::seconds(2), 1});
    core::ObjectSpec sink;
    sink.name = "sink";
    core::MethodSpec ping;
    ping.name = "ping";
    ping.invocation.kind = core::InvocationSpec::Kind::kCondition;
    ping.invocation.condition = [](core::TrackingContext&) {
      return false;  // never self-invoked; port-only
    };
    ping.body = [this](core::TrackingContext& ctx) {
      ++pings;
      last_args = ctx.incoming_args();
    };
    sink.methods.push_back(std::move(ping));
    station.objects.push_back(std::move(sink));
    options.extra_specs.push_back(std::move(station));
    options.extra_senses.emplace_back("station_sensor",
                                      core::sense_target("station"));
    if (tweak) tweak(options);
    world.emplace(options);
  }

  TargetId add_station(Vec2 at) {
    env::Target t;
    t.type = "station";
    t.trajectory = std::make_unique<env::StationaryTrajectory>(at);
    t.radius = env::RadiusProfile::constant(1.2);
    t.emissions["magnetic"] = 5.0;
    return world->env().add_target(std::move(t));
  }

  std::optional<NodeId> station_leader() { return world->sole_leader(1); }

  core::Transport* transport(NodeId node) {
    return world->system().stack(node).transport();
  }

  Vec2 position(NodeId node) {
    return world->system().network().mote(node).position();
  }

  /// Cuts `node` off from the rest of the network (component 1 vs 0).
  void isolate(NodeId node) {
    std::vector<std::uint32_t> component_of(world->system().node_count(),
                                            0);
    component_of[node.value()] = 1;
    world->system().medium().set_partition(std::move(component_of));
  }
  void heal() { world->system().medium().clear_partition(); }

  std::optional<TestWorld> world;
  int pings = 0;
  std::vector<double> last_args;
};

TEST(ReliableTransport, AckSettlesPendingTransfer) {
  RelWorld mtp;
  mtp.world->add_blob({2.0, 2.0});
  mtp.add_station({9.0, 2.0});
  mtp.world->run(8);
  const auto blob_leader = mtp.world->sole_leader(0);
  const auto station_leader = mtp.station_leader();
  ASSERT_TRUE(blob_leader && station_leader);
  const LabelId label = mtp.world->groups(*station_leader).current_label(1);
  auto* origin = mtp.transport(*blob_leader);

  origin->invoke(1, label, PortId{0}, {1.0});
  EXPECT_EQ(origin->pending_transfers(), 1u)
      << "a reliable transfer must stay pending until acked";
  mtp.world->run(5);

  EXPECT_EQ(mtp.pings, 1);
  EXPECT_EQ(origin->pending_transfers(), 0u);
  EXPECT_EQ(origin->stats().acks_received, 1u);
  EXPECT_EQ(origin->stats().delivery_failures, 0u);
  EXPECT_GE(mtp.transport(*station_leader)->stats().acks_sent, 1u);
}

TEST(ReliableTransport, RetransmitRecoversAfterPartitionHeals) {
  RelWorld mtp;
  mtp.world->add_blob({2.0, 2.0});
  mtp.add_station({9.0, 2.0});
  mtp.world->run(8);
  const auto blob_leader = mtp.world->sole_leader(0);
  const auto station_leader = mtp.station_leader();
  ASSERT_TRUE(blob_leader && station_leader);
  const LabelId label = mtp.world->groups(*station_leader).current_label(1);
  auto* origin = mtp.transport(*blob_leader);

  // The origin already knows the route (no directory round trip), then
  // gets cut off before it can send.
  origin->on_leader_observed(1, label, *station_leader,
                             mtp.position(*station_leader));
  mtp.isolate(*blob_leader);
  origin->invoke(1, label, PortId{0}, {42.0});
  // Long enough that the routing-layer ARQ (backoff ladder + fallback
  // sweep, ~2.6 s worst case) gives up on the initial send entirely — the
  // recovery must come from a transport-layer retransmit, not a lingering
  // network-layer retry.
  mtp.world->run(3.0);
  EXPECT_EQ(mtp.pings, 0);
  EXPECT_EQ(origin->pending_transfers(), 1u);

  mtp.heal();
  mtp.world->run(8);  // a later retry gets through

  EXPECT_EQ(mtp.pings, 1) << "retransmission must recover the transfer";
  ASSERT_EQ(mtp.last_args.size(), 1u);
  EXPECT_DOUBLE_EQ(mtp.last_args[0], 42.0);
  EXPECT_GE(origin->stats().retransmits, 1u);
  EXPECT_EQ(origin->stats().acks_received, 1u);
  EXPECT_EQ(origin->stats().delivery_failures, 0u);
  EXPECT_EQ(origin->pending_transfers(), 0u);
}

TEST(ReliableTransport, DuplicateRetransmitIsSuppressed) {
  RelWorld mtp;
  mtp.world->add_blob({2.0, 2.0});
  mtp.add_station({9.0, 2.0});
  mtp.world->run(8);
  const auto blob_leader = mtp.world->sole_leader(0);
  const auto station_leader = mtp.station_leader();
  ASSERT_TRUE(blob_leader && station_leader);
  const LabelId label = mtp.world->groups(*station_leader).current_label(1);
  auto* origin = mtp.transport(*blob_leader);
  auto* dest = mtp.transport(*station_leader);

  origin->invoke(1, label, PortId{0}, {});
  // Let the invocation land, then cut the origin off at the instant of
  // delivery so the returning ack cannot reach it.
  for (int i = 0; i < 2500 && mtp.pings == 0; ++i) mtp.world->run(0.002);
  ASSERT_EQ(mtp.pings, 1);
  mtp.isolate(*blob_leader);
  mtp.world->run(3.0);  // ack + early retries die against the partition
  EXPECT_EQ(origin->stats().acks_received, 0u);
  mtp.heal();
  mtp.world->run(10);  // a surviving retry reaches the (served) receiver

  EXPECT_EQ(mtp.pings, 1)
      << "the dedup window must stop the retransmit from re-invoking";
  EXPECT_GE(dest->stats().duplicates_suppressed, 1u);
  EXPECT_GE(dest->stats().acks_sent, 2u) << "duplicates are re-acked";
  EXPECT_GE(origin->stats().retransmits, 1u);
  EXPECT_EQ(origin->stats().acks_received, 1u);
  EXPECT_EQ(origin->stats().delivery_failures, 0u);
  EXPECT_EQ(origin->pending_transfers(), 0u);
}

TEST(ReliableTransport, RetryBudgetExhaustionFiresDeliveryFailed) {
  RelWorld mtp;
  mtp.world->add_blob({2.0, 2.0});
  mtp.add_station({9.0, 2.0});
  mtp.world->run(8);
  const auto blob_leader = mtp.world->sole_leader(0);
  const auto station_leader = mtp.station_leader();
  ASSERT_TRUE(blob_leader && station_leader);
  const LabelId label = mtp.world->groups(*station_leader).current_label(1);
  auto* origin = mtp.transport(*blob_leader);

  metrics::InvariantOracle oracle(mtp.world->system());

  int failures = 0;
  LabelId failed_label;
  std::vector<double> failed_args;
  origin->set_delivery_failed(
      [&](core::TypeIndex type, LabelId dst, PortId port,
          const std::vector<double>& args) {
        ++failures;
        failed_label = dst;
        failed_args = args;
        EXPECT_EQ(type, 1u);
        EXPECT_EQ(port, PortId{0});
      });

  origin->on_leader_observed(1, label, *station_leader,
                             mtp.position(*station_leader));
  mtp.isolate(*blob_leader);  // never healed: the transfer cannot succeed
  origin->invoke(1, label, PortId{0}, {7.0});
  // Run past the whole retry budget, whatever its timing: the timer
  // doubles from kRetryTimeout through kMaxRetries retransmits, the
  // failure fires when the last doubled timer expires, and jitter
  // stretches each delay by at most (1 + kRetryJitter). One more second
  // covers the timers' CPU service.
  using core::Transport;
  const double ladder =
      static_cast<double>((2 << Transport::kMaxRetries) - 1);
  const Duration horizon =
      Transport::kRetryTimeout * (ladder * (1.0 + Transport::kRetryJitter));
  mtp.world->run(horizon.to_seconds() + 1.0);

  EXPECT_EQ(mtp.pings, 0);
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(failed_label, label);
  ASSERT_EQ(failed_args.size(), 1u);
  EXPECT_DOUBLE_EQ(failed_args[0], 7.0);
  EXPECT_EQ(origin->stats().delivery_failures, 1u);
  EXPECT_EQ(origin->stats().retransmits,
            static_cast<std::uint64_t>(Transport::kMaxRetries))
      << "the budget bounds retransmissions exactly";
  EXPECT_EQ(origin->pending_transfers(), 0u);
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

TEST(ReliableTransport, NegativeCacheFailsFastUntilTtlExpires) {
  RelWorld mtp;
  mtp.world->run(3);
  auto* transport = mtp.transport(NodeId{0});
  const LabelId ghost = LabelId::make(NodeId{42}, 9);

  transport->invoke(1, ghost, PortId{0}, {});
  for (int i = 0; i < 400 && transport->stats().dropped_unknown == 0; ++i) {
    mtp.world->run(0.025);
  }
  ASSERT_EQ(transport->stats().dropped_unknown, 1u);
  const auto lookups = transport->stats().directory_lookups;
  EXPECT_GE(lookups, 1u);

  // Within the TTL: the verdict is cached, no new query goes out.
  transport->invoke(1, ghost, PortId{0}, {});
  EXPECT_GE(transport->stats().resolve_failed, 1u)
      << "a recently-unresolvable label must fail fast";
  EXPECT_EQ(transport->stats().directory_lookups, lookups);

  // Past the TTL: the label gets a fresh chance at resolution.
  mtp.world->run(2.5);
  transport->invoke(1, ghost, PortId{0}, {});
  mtp.world->run(0.1);
  EXPECT_EQ(transport->stats().directory_lookups, lookups + 1);
  EXPECT_EQ(mtp.pings, 0);
}

TEST(ReliableTransport, FireAndForgetModeSendsNoAcks) {
  RelWorld mtp([](TestWorld::Options& options) {
    options.transport.reliable = false;
  });
  mtp.world->add_blob({2.0, 2.0});
  mtp.add_station({9.0, 2.0});
  mtp.world->run(8);
  const auto blob_leader = mtp.world->sole_leader(0);
  const auto station_leader = mtp.station_leader();
  ASSERT_TRUE(blob_leader && station_leader);
  const LabelId label = mtp.world->groups(*station_leader).current_label(1);
  auto* origin = mtp.transport(*blob_leader);

  origin->invoke(1, label, PortId{0}, {3.0});
  EXPECT_EQ(origin->pending_transfers(), 0u)
      << "fire-and-forget tracks nothing";
  mtp.world->run(5);

  EXPECT_EQ(mtp.pings, 1);
  EXPECT_EQ(origin->stats().acks_received, 0u);
  EXPECT_EQ(origin->stats().retransmits, 0u);
  EXPECT_EQ(mtp.transport(*station_leader)->stats().acks_sent, 0u);
}

}  // namespace
}  // namespace et::test
