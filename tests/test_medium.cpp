#include "radio/medium.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/simulator.hpp"

namespace et::radio {
namespace {

class TestPayload final : public Payload {
 public:
  explicit TestPayload(std::size_t bytes = 16) : bytes_(bytes) {}
  std::size_t size_bytes() const override { return bytes_; }

 private:
  std::size_t bytes_;
};

struct MediumTest : public ::testing::Test {
  MediumTest() : sim(99) {}

  Medium& make(RadioConfig config = lossless()) {
    medium.emplace(sim, config);
    return *medium;
  }

  static RadioConfig lossless() {
    RadioConfig config;
    config.loss_probability = 0.0;
    config.model_collisions = false;
    config.carrier_sense_miss = 0.0;
    return config;
  }

  /// Attaches `n` nodes on a line, one grid unit apart, recording receipts.
  void attach_line(Medium& m, std::size_t n) {
    received.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      m.attach(NodeId{i}, {static_cast<double>(i), 0.0});
    }
    m.set_receiver([this](NodeId to, const Frame&) { received[to.value()]++; });
  }

  sim::Simulator sim;
  std::optional<Medium> medium;
  std::vector<int> received;
};

TEST_F(MediumTest, BroadcastReachesNodesInRange) {
  RadioConfig config = lossless();
  config.comm_radius = 2.5;
  Medium& m = make(config);
  attach_line(m, 6);

  m.send(Frame{NodeId{0}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>()});
  sim.run_for(Duration::millis(100));

  EXPECT_EQ(received[0], 0) << "sender must not hear itself";
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 1);
  EXPECT_EQ(received[3], 0) << "node at distance 3 > radius 2.5";
  EXPECT_EQ(received[5], 0);
}

TEST_F(MediumTest, UnicastDeliversOnlyToDestination) {
  Medium& m = make();
  attach_line(m, 4);
  m.send(Frame{NodeId{0}, NodeId{2}, MsgType::kUser,
               std::make_shared<TestPayload>()});
  sim.run_for(Duration::millis(100));
  EXPECT_EQ(received[1], 0);
  EXPECT_EQ(received[2], 1);
  EXPECT_EQ(received[3], 0);
}

TEST_F(MediumTest, UnicastOutOfRangeIsLost) {
  RadioConfig config = lossless();
  config.comm_radius = 1.5;
  Medium& m = make(config);
  attach_line(m, 5);
  m.send(Frame{NodeId{0}, NodeId{4}, MsgType::kUser,
               std::make_shared<TestPayload>()});
  sim.run_for(Duration::millis(100));
  EXPECT_EQ(received[4], 0);
  EXPECT_EQ(m.stats().of(MsgType::kUser).lost, 1u);
}

TEST_F(MediumTest, RangeLimitReducesReach) {
  RadioConfig config = lossless();
  config.comm_radius = 6.0;
  Medium& m = make(config);
  attach_line(m, 6);
  Frame frame{NodeId{0}, std::nullopt, MsgType::kHeartbeat,
              std::make_shared<TestPayload>()};
  frame.range_limit = 1.5;  // reduced transmit power
  m.send(std::move(frame));
  sim.run_for(Duration::millis(100));
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 0) << "beyond the per-frame range limit";
}

TEST_F(MediumTest, AirtimeMatchesBitrate) {
  // 16 payload + 7 header bytes at 50 kb/s.
  Medium& m = make();
  attach_line(m, 2);
  m.send(Frame{NodeId{0}, NodeId{1}, MsgType::kUser,
               std::make_shared<TestPayload>(16)});
  sim.run_for(Duration::seconds(1));
  const double expected_s = (16 + 7) * 8.0 / 50'000.0;
  EXPECT_EQ(m.stats().airtime, Duration::seconds(expected_s));
}

TEST_F(MediumTest, RandomLossDropsApproximately) {
  RadioConfig config = lossless();
  config.loss_probability = 0.3;
  Medium& m = make(config);
  attach_line(m, 2);
  for (int i = 0; i < 500; ++i) {
    m.send(Frame{NodeId{0}, NodeId{1}, MsgType::kUser,
                 std::make_shared<TestPayload>(4)});
    sim.run_for(Duration::millis(20));
  }
  EXPECT_NEAR(received[1], 350, 40);
  const auto& stats = m.stats().of(MsgType::kUser);
  EXPECT_EQ(stats.pair_delivered + stats.pair_lost_random,
            stats.pair_attempts);
}

TEST_F(MediumTest, CollisionDestroysOverlappingFrames) {
  RadioConfig config = lossless();
  config.model_collisions = true;
  config.carrier_sense_miss = 1.0;  // senders never defer: force overlap
  Medium& m = make(config);
  // Node 0 and node 2 both in range of node 1.
  attach_line(m, 3);
  m.send(Frame{NodeId{0}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>(64)});
  m.send(Frame{NodeId{2}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>(64)});
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(received[1], 0) << "simultaneous transmissions must collide";
  EXPECT_GE(m.stats().of(MsgType::kUser).pair_lost_collision, 1u);
}

TEST_F(MediumTest, CsmaAvoidsCollisionWhenSensingWorks) {
  RadioConfig config = lossless();
  config.model_collisions = true;
  config.carrier_sense_miss = 0.0;  // perfect carrier sense
  Medium& m = make(config);
  attach_line(m, 3);
  m.send(Frame{NodeId{0}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>(64)});
  // Second sender queues after the first started: must defer, not collide.
  sim.run_for(Duration::millis(1));
  m.send(Frame{NodeId{2}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>(64)});
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(received[1], 2);
  EXPECT_EQ(m.stats().of(MsgType::kUser).pair_lost_collision, 0u);
}

TEST_F(MediumTest, HiddenTerminalCollides) {
  RadioConfig config = lossless();
  config.model_collisions = true;
  config.comm_radius = 1.5;
  Medium& m = make(config);
  // 0 and 2 cannot hear each other (distance 2 > 1.5) but both reach 1.
  attach_line(m, 3);
  m.send(Frame{NodeId{0}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>(64)});
  m.send(Frame{NodeId{2}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>(64)});
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(received[1], 0);
}

TEST_F(MediumTest, HalfDuplexReceiverMissesWhileTransmitting) {
  RadioConfig config = lossless();
  config.model_collisions = true;
  config.carrier_sense_miss = 1.0;
  Medium& m = make(config);
  attach_line(m, 2);
  // Both transmit simultaneously: neither receives the other's frame.
  m.send(Frame{NodeId{0}, NodeId{1}, MsgType::kUser,
               std::make_shared<TestPayload>(64)});
  m.send(Frame{NodeId{1}, NodeId{0}, MsgType::kUser,
               std::make_shared<TestPayload>(64)});
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(received[0], 0);
  EXPECT_EQ(received[1], 0);
}

TEST_F(MediumTest, QueueOverflowDropsFrames) {
  RadioConfig config = lossless();
  config.tx_queue_capacity = 2;
  Medium& m = make(config);
  attach_line(m, 2);
  for (int i = 0; i < 10; ++i) {
    m.send(Frame{NodeId{0}, NodeId{1}, MsgType::kUser,
                 std::make_shared<TestPayload>(200)});
  }
  sim.run_for(Duration::seconds(2));
  EXPECT_GT(m.stats().of(MsgType::kUser).mac_dropped, 0u);
  // Offered = transmitted + dropped.
  const auto& stats = m.stats().of(MsgType::kUser);
  EXPECT_EQ(stats.offered, stats.transmitted + stats.mac_dropped);
}

class TaggedPayload final : public Payload {
 public:
  explicit TaggedPayload(int id) : id(id) {}
  std::size_t size_bytes() const override { return 200; }
  const int id;
};

TEST_F(MediumTest, BackedUpQueueDrainsInSendOrderAndDropsNewest) {
  RadioConfig config = lossless();
  config.tx_queue_capacity = 16;
  Medium& m = make(config);
  std::vector<int> heard;
  m.attach(NodeId{0}, {0.0, 0.0});
  m.attach(NodeId{1}, {1.0, 0.0});
  m.set_receiver([&heard](NodeId to, const Frame& frame) {
    if (to != NodeId{1}) return;
    heard.push_back(static_cast<const TaggedPayload&>(*frame.payload).id);
  });
  std::vector<int> accepted;
  std::vector<int> dropped;
  int next_id = 0;
  // Sends a batch and lets it reach the MAC (tx_handoff() later, in send
  // order). Splits the batch by the drop count, assuming the MAC keeps the
  // oldest frames; `heard == accepted` below checks that assumption.
  auto send = [&](int count) {
    const std::uint64_t before = m.stats().of(MsgType::kUser).mac_dropped;
    std::vector<int> batch;
    for (int k = 0; k < count; ++k) {
      batch.push_back(next_id);
      m.send(Frame{NodeId{0}, NodeId{1}, MsgType::kUser,
                   std::make_shared<TaggedPayload>(next_id++)});
    }
    sim.run_for(m.tx_handoff());
    const auto lost = static_cast<std::ptrdiff_t>(
        m.stats().of(MsgType::kUser).mac_dropped - before);
    accepted.insert(accepted.end(), batch.begin(), batch.end() - lost);
    dropped.insert(dropped.end(), batch.end() - lost, batch.end());
  };
  // Frame 0 goes on the air at once, 1-16 fill the queue, 17-19 overflow.
  send(20);
  EXPECT_EQ(dropped, (std::vector<int>{17, 18, 19}));
  // A few frames drain, so the refill wraps around the queue's storage.
  // Stop between a reception and the next frame's start: a frame is heard
  // rx_latency() after it completes and the next queued frame goes on the
  // air 100 us after that completion, so here every frame taken off the
  // queue has been heard and the queue has heard.size() free slots.
  sim.run_for(Duration::millis(90));
  ASSERT_GE(heard.size(), 2u);
  send(static_cast<int>(heard.size()) + 3);
  sim.run_for(Duration::seconds(2));
  EXPECT_EQ(heard, accepted);
  EXPECT_EQ(dropped.size(), 6u);
  EXPECT_EQ(dropped.back(), next_id - 1);  // the newest frame is the one lost
}

TEST_F(MediumTest, NeighborsAndRangeQueries) {
  RadioConfig config = lossless();
  config.comm_radius = 2.0;
  Medium& m = make(config);
  attach_line(m, 5);
  const auto neighbors = m.neighbors(NodeId{2});
  ASSERT_EQ(neighbors.size(), 4u);  // 0,1,3,4 all within 2.0
  EXPECT_TRUE(m.in_range(NodeId{0}, NodeId{2}));
  EXPECT_FALSE(m.in_range(NodeId{0}, NodeId{3}));
}

TEST_F(MediumTest, UtilizationAccountsAllBits) {
  Medium& m = make();
  attach_line(m, 2);
  for (int i = 0; i < 10; ++i) {
    m.send(Frame{NodeId{0}, NodeId{1}, MsgType::kUser,
                 std::make_shared<TestPayload>(18)});
    sim.run_for(Duration::millis(100));
  }
  // 10 frames x (18+7) bytes x 8 bits over 1 second at 50 kb/s = 4%.
  EXPECT_EQ(m.stats().bits_sent, 10u * 25u * 8u);
  EXPECT_NEAR(m.stats().link_utilization(Duration::seconds(1), 50'000.0),
              0.04, 0.001);
}

TEST_F(MediumTest, PerTypeStatsAreSeparate) {
  Medium& m = make();
  attach_line(m, 2);
  m.send(Frame{NodeId{0}, NodeId{1}, MsgType::kHeartbeat,
               std::make_shared<TestPayload>()});
  m.send(Frame{NodeId{0}, NodeId{1}, MsgType::kReport,
               std::make_shared<TestPayload>()});
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(m.stats().of(MsgType::kHeartbeat).transmitted, 1u);
  EXPECT_EQ(m.stats().of(MsgType::kReport).transmitted, 1u);
  EXPECT_EQ(m.stats().of(MsgType::kUser).transmitted, 0u);
  EXPECT_EQ(m.stats().totals().transmitted, 2u);
}

TEST_F(MediumTest, BackoffExhaustionDropsFrame) {
  RadioConfig config = lossless();
  config.model_collisions = true;
  config.max_backoff_attempts = 2;
  config.backoff_slot = Duration::micros(100);
  Medium& m = make(config);
  attach_line(m, 3);
  // Saturate the channel with a giant frame, then offer another: the
  // second sender backs off twice and gives up.
  m.send(Frame{NodeId{0}, std::nullopt, MsgType::kCrossTraffic,
               std::make_shared<TestPayload>(20000)});  // ~3.2 s airtime
  sim.run_for(Duration::millis(1));
  m.send(Frame{NodeId{1}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>()});
  sim.run_for(Duration::seconds(5));
  EXPECT_EQ(m.stats().of(MsgType::kUser).mac_dropped, 1u);
}

TEST_F(MediumTest, BurstLossAccountedSeparatelyAndClustered) {
  // Gilbert–Elliott channel with a perfect good state and a hopeless bad
  // state: every loss is a burst loss, and drops arrive in runs whose
  // length reflects the bad-state sojourn time (~0.5 s here), not as
  // isolated i.i.d. events.
  RadioConfig config = lossless();
  config.burst_loss.enabled = true;
  config.burst_loss.mean_good = Duration::seconds(1);
  config.burst_loss.mean_bad = Duration::seconds(0.5);
  config.burst_loss.loss_good = 0.0;
  config.burst_loss.loss_bad = 1.0;
  Medium& m = make(config);
  attach_line(m, 2);

  std::vector<bool> delivered;
  int before = 0;
  for (int i = 0; i < 600; ++i) {
    m.send(Frame{NodeId{0}, NodeId{1}, MsgType::kUser,
                 std::make_shared<TestPayload>()});
    sim.run_for(Duration::millis(10));
    delivered.push_back(received[1] > before);
    before = received[1];
  }

  const TypeStats& user = m.stats().of(MsgType::kUser);
  EXPECT_GT(user.pair_lost_burst, 0u);
  EXPECT_EQ(user.pair_lost_random, 0u)
      << "with loss_good = 0 every drop must be charged to the burst state";
  EXPECT_GT(user.pair_delivered, 0u);

  // Longest runs of each kind: at 10 ms spacing a 0.5 s mean bad sojourn
  // yields tens of consecutive losses, and vice versa for the good state.
  std::size_t longest_loss = 0, longest_ok = 0, run = 0;
  bool last = delivered.front();
  for (bool ok : delivered) {
    run = (ok == last) ? run + 1 : 1;
    last = ok;
    (ok ? longest_ok : longest_loss) = std::max(ok ? longest_ok : longest_loss, run);
  }
  EXPECT_GE(longest_loss, 10u) << "burst losses must cluster";
  EXPECT_GE(longest_ok, 10u) << "good-state deliveries must cluster";
}

TEST_F(MediumTest, BurstLossDisabledChargesNothingToBurstCounter) {
  RadioConfig config = lossless();
  config.loss_probability = 0.5;
  Medium& m = make(config);
  attach_line(m, 2);
  for (int i = 0; i < 50; ++i) {
    m.send(Frame{NodeId{0}, NodeId{1}, MsgType::kUser,
                 std::make_shared<TestPayload>()});
    sim.run_for(Duration::millis(10));
  }
  EXPECT_GT(m.stats().of(MsgType::kUser).pair_lost_random, 0u);
  EXPECT_EQ(m.stats().of(MsgType::kUser).pair_lost_burst, 0u);
}

TEST_F(MediumTest, BlackoutSilencesNodeBothWays) {
  Medium& m = make();
  attach_line(m, 3);
  m.set_node_blackout(NodeId{1}, true);
  EXPECT_TRUE(m.node_blackout(NodeId{1}));

  // Inbound: node 1 hears nothing while blacked out.
  m.send(Frame{NodeId{0}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>()});
  sim.run_for(Duration::millis(100));
  EXPECT_EQ(received[1], 0);
  EXPECT_EQ(received[2], 1);

  // Outbound: node 1's own transmissions die in the antenna.
  m.send(Frame{NodeId{1}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>()});
  sim.run_for(Duration::millis(100));
  EXPECT_EQ(received[0], 0) << "node 1's broadcast must not leave the node";
  EXPECT_EQ(m.stats().of(MsgType::kUser).mac_dropped, 1u);

  // Lifting the blackout restores both directions.
  m.set_node_blackout(NodeId{1}, false);
  m.send(Frame{NodeId{0}, std::nullopt, MsgType::kUser,
               std::make_shared<TestPayload>()});
  sim.run_for(Duration::millis(100));
  EXPECT_EQ(received[1], 1);
}

}  // namespace
}  // namespace et::radio
