/// Watching a running deployment allocates nothing per protocol event.
///
/// Each group event is journaled as one op whose closure (the event and the
/// observer list) fits inline in an event slot, and the invariant oracle
/// keeps its violation trace as raw events, formatting them only when it
/// records a violation. This binary counts allocations through a replaced
/// global `operator new` (tests/counting_allocator.hpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>

#include "core/system.hpp"
#include "counting_allocator.hpp"
#include "env/trajectory.hpp"
#include "metrics/invariants.hpp"

namespace et::core {
namespace {

using et::testing::allocations;

/// Counts group events and allocates nothing.
class CountingObserver final : public GroupObserver {
 public:
  void on_group_event(const GroupEvent&) override { ++events; }
  std::uint64_t events = 0;
};

/// A started 3 x 8 grid with one "blob" context type on a lossless,
/// collision-free channel.
struct BlobWorld {
  BlobWorld() : sim(1), env(sim.make_rng("env")), field(env::Field::grid(3, 8)) {
    SystemConfig config;
    config.radio.loss_probability = 0.0;
    config.radio.model_collisions = false;
    config.radio.carrier_sense_miss = 0.0;
    config.middleware.group.suppression_radius = 2.4;
    config.middleware.group.wait_radius = 2.7;
    system = std::make_unique<EnviroTrackSystem>(sim, env, field, config);
    system->senses().add("blob_sensor", sense_target("blob"));
    ContextTypeSpec spec;
    spec.name = "blob";
    spec.activation = "blob_sensor";
    spec.variables.push_back(AggregateVarSpec{"where", "avg", "position",
                                              Duration::seconds(1), 2});
    system->add_context_type(std::move(spec));
    system->start();
  }

  /// A blob of sensing radius 1.2 crossing the grid's middle row at 1 m/s.
  void add_crossing_blob() {
    env::Target blob;
    blob.type = "blob";
    blob.trajectory = std::make_unique<env::LinearTrajectory>(
        Vec2{0.0, 1.0}, Vec2{7.0, 1.0}, 1.0);
    blob.radius = env::RadiusProfile::constant(1.2);
    env.add_target(std::move(blob));
  }

  sim::Simulator sim;
  env::Environment env;
  env::Field field;
  std::unique_ptr<EnviroTrackSystem> system;
};

struct Window {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
};

/// The blob's crossing, watched by `observer` or by nobody: allocations
/// made from 3 s to 8 s, and the group events the observer saw meanwhile.
Window crossing(CountingObserver* observer) {
  BlobWorld world;
  if (observer) world.system->add_group_observer(observer);
  world.add_crossing_blob();
  world.system->run_for(Duration::seconds(3));
  const std::uint64_t events_before = observer ? observer->events : 0;
  const std::uint64_t before = allocations();
  world.system->run_for(Duration::seconds(5));
  Window window;
  window.allocations = allocations() - before;
  window.events = observer ? observer->events - events_before : 0;
  return window;
}

TEST(ObserverAllocations, JournaledGroupEventsAllocateNothing) {
  // The same deterministic run with and without an observer: its only
  // extra work is journaling the group events, which must not allocate.
  CountingObserver observer;
  const Window watched = crossing(&observer);
  const Window unwatched = crossing(nullptr);
  std::printf("group events journaled: %llu; allocations watched %llu, "
              "unwatched %llu\n",
              static_cast<unsigned long long>(watched.events),
              static_cast<unsigned long long>(watched.allocations),
              static_cast<unsigned long long>(unwatched.allocations));
  ASSERT_GE(watched.events, 20u);
  EXPECT_EQ(watched.allocations, unwatched.allocations);
}

GroupEvent group_event(GroupEvent::Kind kind, Time at, NodeId node,
                       LabelId label) {
  return GroupEvent{kind, 0, at, node, label, NodeId{}, 0, /*epoch=*/1};
}

TransportEvent transport_event(TransportEvent::Kind kind, Time at,
                               NodeId node, LabelId label,
                               std::uint32_t seq) {
  return TransportEvent{kind, at, node, label, NodeId{2}, seq, /*attempt=*/1};
}

TEST(ObserverAllocations, WarmOracleTracesEventsWithoutAllocating) {
  BlobWorld world;
  metrics::InvariantOracle oracle(*world.system);
  const LabelId label = LabelId::make(NodeId{1}, 1);

  // Every group event kind, and every transport event kind that adds no
  // oracle state: a reliable transfer's first delivery adds one entry to
  // the delivered set, so deliveries here are fire-and-forget (seq 0).
  const auto feed = [&](std::uint64_t round) {
    const Time at = Time::micros(static_cast<std::int64_t>(round));
    const NodeId node{round % 6};
    for (int k = 0; k <= static_cast<int>(GroupEvent::Kind::kFenced); ++k) {
      oracle.on_group_event(
          group_event(static_cast<GroupEvent::Kind>(k), at, node, label));
    }
    for (int k = 0;
         k <= static_cast<int>(TransportEvent::Kind::kResolveFailed); ++k) {
      const auto kind = static_cast<TransportEvent::Kind>(k);
      const std::uint32_t seq =
          kind == TransportEvent::Kind::kDelivered ? 0 : 5;
      oracle.on_transport_event(transport_event(kind, at, node, label, seq));
    }
  };
  feed(0);  // warm: the label's epoch high water exists

  const std::uint64_t before = allocations();
  for (std::uint64_t round = 1; round <= 100; ++round) feed(round);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

}  // namespace
}  // namespace et::core
