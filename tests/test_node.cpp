#include "node/mote.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "node/network.hpp"

namespace et::node {
namespace {

class JunkPayload final : public radio::Payload {
 public:
  std::size_t size_bytes() const override { return 8; }
};

/// A service that counts the frames of one message type a mote hands it,
/// registered the way every service in src/ registers its handlers.
struct FrameCounter {
  int frames = 0;

  void listen(Mote& mote, radio::MsgType type) {
    mote.set_handler<&FrameCounter::on_frame>(type, this);
  }
  void on_frame(const radio::Frame&) { ++frames; }
};

struct NodeTest : public ::testing::Test {
  NodeTest()
      : sim(7),
        env(sim.make_rng("env")),
        field(env::Field::grid(1, 4)),
        medium(sim, lossless()) {}

  static radio::RadioConfig lossless() {
    radio::RadioConfig config;
    config.loss_probability = 0.0;
    config.model_collisions = false;
    return config;
  }

  sim::Simulator sim;
  env::Environment env;
  env::Field field;
  radio::Medium medium;
};

TEST_F(NodeTest, CpuExecutesTasksSequentially) {
  const CpuConfig config{Duration::millis(10), Duration::millis(5), 4};
  Cpu cpu(sim, config);
  std::vector<int> order;
  cpu.post(Duration::millis(10), [&] { order.push_back(1); });
  cpu.post(Duration::millis(10), [&] { order.push_back(2); });
  sim.run_for(Duration::millis(15));
  EXPECT_EQ(order, (std::vector<int>{1}));  // second still queued
  sim.run_for(Duration::millis(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(cpu.stats().executed, 2u);
  EXPECT_EQ(cpu.stats().busy, Duration::millis(20));
}

TEST_F(NodeTest, CpuQueueOverflowDrops) {
  const CpuConfig config{Duration::millis(10), Duration::millis(5), 2};
  Cpu cpu(sim, config);
  int executed = 0;
  // One runs immediately; capacity 2 queue; the rest drop.
  for (int i = 0; i < 6; ++i) {
    cpu.post(Duration::millis(10), [&] { ++executed; });
  }
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(executed, 3);
  EXPECT_EQ(cpu.stats().dropped, 3u);
  EXPECT_EQ(cpu.stats().posted, 6u);
}

TEST_F(NodeTest, CpuQueueKeepsPostOrderThroughGrowthAndWrapAround) {
  const CpuConfig config{Duration::millis(10), Duration::millis(5), 64};
  Cpu cpu(sim, config);
  std::vector<int> accepted;
  std::vector<int> order;
  int next_id = 0;
  auto post = [&] {
    const int id = next_id++;
    if (cpu.post(Duration::millis(10), [&order, id] { order.push_back(id); })) {
      accepted.push_back(id);
    }
  };
  // Three posts per completed task: the backlog grows by about two a round,
  // so every doubling of the queue's storage happens with its head away
  // from the first slot, until the 64 waiting tasks fill it.
  std::size_t max_depth = 0;
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 3; ++k) post();
    max_depth = std::max(max_depth, cpu.queue_depth());
    sim.run_for(Duration::millis(10));
  }
  EXPECT_EQ(max_depth, 64u);
  EXPECT_GT(cpu.stats().dropped, 0u);
  sim.run_for(Duration::seconds(10));
  EXPECT_EQ(order, accepted);
  EXPECT_EQ(cpu.stats().executed + cpu.stats().dropped, cpu.stats().posted);
  EXPECT_EQ(cpu.queue_depth(), 0u);
  EXPECT_FALSE(cpu.busy());
}

TEST_F(NodeTest, CpuTasksSeeEffectsAfterServiceTime) {
  const CpuConfig config{};
  Cpu cpu(sim, config);
  Time ran_at;
  cpu.post(Duration::millis(30), [&] { ran_at = sim.now(); });
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(ran_at, Time::origin() + Duration::millis(30));
}

TEST_F(NodeTest, MoteSensesEnvironment) {
  MoteNetwork network(sim, medium, env, field);
  env::Target blob;
  blob.type = "thing";
  blob.trajectory = std::make_unique<env::StationaryTrajectory>(Vec2{1.0, 0});
  blob.radius = env::RadiusProfile::constant(1.2);
  blob.emissions["magnetic"] = 8.0;
  env.add_target(std::move(blob));

  EXPECT_TRUE(network.mote(NodeId{0}).senses("thing"));   // distance 1
  EXPECT_TRUE(network.mote(NodeId{1}).senses("thing"));   // distance 0
  EXPECT_FALSE(network.mote(NodeId{3}).senses("thing"));  // distance 2
  EXPECT_GT(network.mote(NodeId{1}).read_sensor("magnetic"),
            network.mote(NodeId{3}).read_sensor("magnetic"));
}

TEST_F(NodeTest, FrameDispatchByType) {
  MoteNetwork network(sim, medium, env, field);
  FrameCounter heartbeats;
  FrameCounter reports;
  heartbeats.listen(network.mote(NodeId{1}), radio::MsgType::kHeartbeat);
  reports.listen(network.mote(NodeId{1}), radio::MsgType::kReport);

  network.mote(NodeId{0}).broadcast(radio::MsgType::kHeartbeat,
                                    std::make_shared<JunkPayload>());
  network.mote(NodeId{0}).broadcast(radio::MsgType::kUser,
                                    std::make_shared<JunkPayload>());
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(heartbeats.frames, 1);
  EXPECT_EQ(reports.frames, 0);
}

TEST_F(NodeTest, UnhandledFrameCostsNoCpu) {
  // Frames with no registered handler are filtered before the CPU model —
  // the basis of the paper's cross-traffic result (bandwidth load without
  // CPU load on EnviroTrack motes).
  MoteNetwork network(sim, medium, env, field);
  network.mote(NodeId{0}).broadcast(radio::MsgType::kCrossTraffic,
                                    std::make_shared<JunkPayload>());
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(network.mote(NodeId{1}).cpu().stats().posted, 0u);
}

TEST_F(NodeTest, HandledFrameCostsCpu) {
  MoteNetwork network(sim, medium, env, field);
  FrameCounter handler;
  handler.listen(network.mote(NodeId{1}), radio::MsgType::kUser);
  network.mote(NodeId{0}).broadcast(radio::MsgType::kUser,
                                    std::make_shared<JunkPayload>());
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(network.mote(NodeId{1}).cpu().stats().posted, 1u);
}

TEST_F(NodeTest, TimersRunThroughCpu) {
  MoteNetwork network(sim, medium, env, field);
  Mote& mote = network.mote(NodeId{0});
  int after_fired = 0;
  int every_fired = 0;
  mote.after(Duration::millis(100), [&] { ++after_fired; });
  mote.every(Duration::millis(200), Duration::millis(200),
             [&] { ++every_fired; });
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(after_fired, 1);
  // The tick posted at t = 1000 ms is still paying its CPU service time
  // when the deadline hits, so only four of five have executed.
  EXPECT_EQ(every_fired, 4);
  EXPECT_EQ(mote.cpu().stats().posted, 6u);
}

TEST_F(NodeTest, TimerCancellation) {
  MoteNetwork network(sim, medium, env, field);
  Mote& mote = network.mote(NodeId{0});
  int fired = 0;
  auto handle = mote.every(Duration::millis(100), Duration::millis(100),
                           [&] { ++fired; });
  sim.run_for(Duration::millis(250));
  EXPECT_EQ(fired, 2);
  handle.cancel();
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(fired, 2);
}

TEST_F(NodeTest, DownMoteIsDeaf) {
  MoteNetwork network(sim, medium, env, field);
  FrameCounter received;
  received.listen(network.mote(NodeId{1}), radio::MsgType::kUser);
  network.mote(NodeId{1}).set_down(true);
  network.mote(NodeId{0}).broadcast(radio::MsgType::kUser,
                                    std::make_shared<JunkPayload>());
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(received.frames, 0);
}

TEST_F(NodeTest, DownMoteTimersDoNotFire) {
  MoteNetwork network(sim, medium, env, field);
  Mote& mote = network.mote(NodeId{0});
  int fired = 0;
  mote.every(Duration::millis(100), Duration::millis(100), [&] { ++fired; });
  sim.run_for(Duration::millis(250));
  mote.set_down(true);
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(fired, 2);
}

TEST_F(NodeTest, PerMoteRngStreamsDiffer) {
  MoteNetwork network(sim, medium, env, field);
  auto& a = network.mote(NodeId{0}).rng();
  auto& b = network.mote(NodeId{1}).rng();
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace et::node
