#include "net/geo_routing.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "node/network.hpp"

namespace et::net {
namespace {

class DataPayload final : public radio::Payload {
 public:
  explicit DataPayload(int value) : value_(value) {}
  std::size_t size_bytes() const override { return 8; }
  int value() const { return value_; }

 private:
  int value_;
};

/// A grid of motes, each with a routing service, short radio range so
/// multi-hop relaying is exercised.
struct RoutingTest : public ::testing::Test {
  RoutingTest() { build(); }

  void build(double loss = 0.0, double comm_radius = 1.5,
             RoutingConfig config_for_routers = {}) {
    routers.clear();
    routing_config = config_for_routers;
    sim.emplace(11);
    env.emplace(sim->make_rng("env"));
    field.emplace(env::Field::grid(5, 8));
    radio::RadioConfig config;
    config.loss_probability = loss;
    config.model_collisions = false;
    config.comm_radius = comm_radius;
    medium.emplace(*sim, config);
    network.emplace(*sim, *medium, *env, *field);
    routers.reserve(field->size());
    for (std::size_t i = 0; i < field->size(); ++i) {
      routers.push_back(std::make_unique<GeoRouting>(
          network->mote(NodeId{i}), routing_config));
    }
  }

  GeoRouting& router(std::size_t i) { return *routers[i]; }

  std::optional<sim::Simulator> sim;
  std::optional<env::Environment> env;
  std::optional<env::Field> field;
  std::optional<radio::Medium> medium;
  std::optional<node::MoteNetwork> network;
  /// Shared by the routers, which refer to it.
  RoutingConfig routing_config;
  std::vector<std::unique_ptr<GeoRouting>> routers;
};

TEST_F(RoutingTest, DeliversAcrossMultipleHops) {
  // Node 0 sits at (0,0); route to the far corner (7,4) = node 39.
  int received = -1;
  NodeId origin_seen;
  router(39).on_delivery(radio::MsgType::kUser,
                         [&](const RouteEnvelope& envelope) {
                           received = static_cast<const DataPayload*>(
                                          envelope.inner.get())
                                          ->value();
                           origin_seen = envelope.origin;
                         });
  router(0).send({7.0, 4.0}, radio::MsgType::kUser,
                 std::make_shared<DataPayload>(123));
  sim->run_for(Duration::seconds(2));
  EXPECT_EQ(received, 123);
  EXPECT_EQ(origin_seen, NodeId{0});
  EXPECT_EQ(router(0).stats().originated, 1u);
  EXPECT_EQ(router(39).stats().delivered, 1u);
}

TEST_F(RoutingTest, ConsumesAtNearestNodeWithoutFinalDst) {
  // Destination coordinate between nodes: the closest node consumes.
  int consumer = -1;
  for (std::size_t i = 0; i < routers.size(); ++i) {
    router(i).on_delivery(radio::MsgType::kUser,
                          [&, i](const RouteEnvelope&) {
                            consumer = static_cast<int>(i);
                          });
  }
  router(0).send({5.2, 2.1}, radio::MsgType::kUser,
                 std::make_shared<DataPayload>(1));
  sim->run_for(Duration::seconds(2));
  // Nearest node to (5.2, 2.1) is (5,2) = row 2 * 8 + 5 = 21.
  EXPECT_EQ(consumer, 21);
}

TEST_F(RoutingTest, FinalDstOnlyConsumedByThatNode) {
  int wrong = 0;
  int right = 0;
  router(20).on_delivery(radio::MsgType::kUser,
                         [&](const RouteEnvelope&) { ++wrong; });
  router(21).on_delivery(radio::MsgType::kUser,
                         [&](const RouteEnvelope&) { ++right; });
  router(0).send({5.0, 2.0}, radio::MsgType::kUser,
                 std::make_shared<DataPayload>(1), NodeId{21});
  sim->run_for(Duration::seconds(2));
  EXPECT_EQ(right, 1);
  EXPECT_EQ(wrong, 0);
}

TEST_F(RoutingTest, SelfDeliveryWhenOriginIsNearest) {
  int received = 0;
  router(0).on_delivery(radio::MsgType::kUser,
                        [&](const RouteEnvelope&) { ++received; });
  router(0).send({0.1, 0.1}, radio::MsgType::kUser,
                 std::make_shared<DataPayload>(1));
  sim->run_for(Duration::seconds(1));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(medium->stats().totals().transmitted, 0u)
      << "local consumption needs no radio";
}

TEST_F(RoutingTest, ArqRecoversFromLoss) {
  build(/*loss=*/0.3, /*comm_radius=*/1.5);
  int received = 0;
  router(39).on_delivery(radio::MsgType::kUser,
                         [&](const RouteEnvelope&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    router(0).send({7.0, 4.0}, radio::MsgType::kUser,
                   std::make_shared<DataPayload>(i));
    sim->run_for(Duration::seconds(2));
  }
  // 30% per-hop loss over ~11 hops would pass ~2% of frames without ARQ;
  // with 3 attempts per hop most envelopes arrive.
  EXPECT_GE(received, 6);
  EXPECT_GT(router(0).stats().retries + router(8).stats().retries +
                router(9).stats().retries,
            0u);
}

TEST_F(RoutingTest, TtlDropsOverlongRoutes) {
  RoutingConfig config;
  config.max_hops = 3;  // the corner-to-corner path needs ~7 hops
  build(0.0, 1.5, config);
  int received = 0;
  router(39).on_delivery(radio::MsgType::kUser,
                         [&](const RouteEnvelope&) { ++received; });
  router(0).send({7.0, 4.0}, radio::MsgType::kUser,
                 std::make_shared<DataPayload>(1));
  sim->run_for(Duration::seconds(2));
  EXPECT_EQ(received, 0);
  std::uint64_t ttl_drops = 0;
  for (const auto& r : routers) ttl_drops += r->stats().dropped_ttl;
  EXPECT_EQ(ttl_drops, 1u);
}

TEST_F(RoutingTest, DuplicateSuppression) {
  int received = 0;
  router(2).on_delivery(radio::MsgType::kUser,
                        [&](const RouteEnvelope&) { ++received; });
  router(0).send({2.0, 0.0}, radio::MsgType::kUser,
                 std::make_shared<DataPayload>(7));
  sim->run_for(Duration::seconds(2));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(router(1).stats().duplicates +
                router(2).stats().duplicates,
            0u)
      << "no duplicates on a lossless channel";
}

TEST_F(RoutingTest, StatsAccounting) {
  router(39).on_delivery(radio::MsgType::kUser,
                         [](const RouteEnvelope&) {});
  router(0).send({7.0, 4.0}, radio::MsgType::kUser,
                 std::make_shared<DataPayload>(1));
  sim->run_for(Duration::seconds(2));
  // Every intermediate hop forwarded exactly once on a lossless channel.
  std::uint64_t forwarded = 0;
  for (const auto& r : routers) forwarded += r->stats().forwarded;
  EXPECT_GE(forwarded, 7u);  // at least the Chebyshev-path length
  EXPECT_EQ(router(39).stats().delivered, 1u);
}

}  // namespace
}  // namespace et::net
