/// The spatial index is a pure fast path: runs must be bit-identical with
/// the brute-force O(N)-scan reference. These tests drive both paths with
/// identical seeds and assert exact equality of every statistic and the
/// total event count — any divergence in candidate order, carrier-sense
/// verdicts, or history pruning would desynchronise the RNG stream and show
/// up here.

#include <gtest/gtest.h>

#include "radio/medium.hpp"
#include "scenario/tank.hpp"
#include "sim/simulator.hpp"

namespace et {
namespace {

void expect_type_stats_eq(const radio::TypeStats& a, const radio::TypeStats& b,
                          std::size_t type) {
  EXPECT_EQ(a.offered, b.offered) << "type " << type;
  EXPECT_EQ(a.transmitted, b.transmitted) << "type " << type;
  EXPECT_EQ(a.mac_dropped, b.mac_dropped) << "type " << type;
  EXPECT_EQ(a.lost, b.lost) << "type " << type;
  EXPECT_EQ(a.pair_attempts, b.pair_attempts) << "type " << type;
  EXPECT_EQ(a.pair_delivered, b.pair_delivered) << "type " << type;
  EXPECT_EQ(a.pair_lost_collision, b.pair_lost_collision) << "type " << type;
  EXPECT_EQ(a.pair_lost_random, b.pair_lost_random) << "type " << type;
  EXPECT_EQ(a.pair_lost_burst, b.pair_lost_burst) << "type " << type;
}

void expect_medium_stats_eq(const radio::MediumStats& a,
                            const radio::MediumStats& b) {
  EXPECT_EQ(a.bits_sent, b.bits_sent);
  EXPECT_EQ(a.airtime, b.airtime);
  for (std::size_t t = 0; t < radio::kMsgTypeCount; ++t) {
    expect_type_stats_eq(a.by_type[t], b.by_type[t], t);
  }
}

TEST(MediumEquivalence, TankScenarioRunsBitIdentical) {
  scenario::TankScenarioParams params;
  params.rows = 3;
  params.cols = 14;
  params.speed_hops_per_s = 1.5;
  params.radio.loss_probability = 0.05;
  params.seed = 7;

  scenario::TankScenarioParams brute = params;
  brute.radio.use_spatial_index = false;
  scenario::TankScenarioParams indexed = params;
  indexed.radio.use_spatial_index = true;

  scenario::TankScenario brute_run(brute);
  const scenario::TankRunResult brute_result = brute_run.run();
  const std::uint64_t brute_events = brute_run.sim().events_fired();

  scenario::TankScenario indexed_run(indexed);
  const scenario::TankRunResult indexed_result = indexed_run.run();
  const std::uint64_t indexed_events = indexed_run.sim().events_fired();

  EXPECT_EQ(brute_events, indexed_events);
  expect_medium_stats_eq(brute_result.medium, indexed_result.medium);
  EXPECT_EQ(brute_result.tracking.distinct_labels,
            indexed_result.tracking.distinct_labels);
  EXPECT_EQ(brute_result.tracking.successful_handovers,
            indexed_result.tracking.successful_handovers);
  EXPECT_EQ(brute_result.tracking.failed_handovers,
            indexed_result.tracking.failed_handovers);
  EXPECT_EQ(brute_result.track.size(), indexed_result.track.size());
  EXPECT_EQ(brute_result.track_labels, indexed_result.track_labels);
}

TEST(MediumEquivalence, TankScenarioWithBurstLossBitIdentical) {
  // The Gilbert–Elliott channel samples per-receiver burst state lazily on
  // each delivery attempt; both radio paths must visit receivers in the
  // same order or the RNG stream (and thus every stat) diverges.
  scenario::TankScenarioParams params;
  params.rows = 3;
  params.cols = 12;
  params.speed_hops_per_s = 1.0;
  params.radio.burst_loss.enabled = true;
  params.seed = 13;

  scenario::TankScenarioParams brute = params;
  brute.radio.use_spatial_index = false;
  scenario::TankScenarioParams indexed = params;
  indexed.radio.use_spatial_index = true;

  scenario::TankScenario brute_run(brute);
  const scenario::TankRunResult brute_result = brute_run.run();
  scenario::TankScenario indexed_run(indexed);
  const scenario::TankRunResult indexed_result = indexed_run.run();

  EXPECT_EQ(brute_run.sim().events_fired(), indexed_run.sim().events_fired());
  expect_medium_stats_eq(brute_result.medium, indexed_result.medium);
  EXPECT_EQ(brute_result.tracking.distinct_labels,
            indexed_result.tracking.distinct_labels);
  EXPECT_EQ(brute_result.track_labels, indexed_result.track_labels);
  // The burst channel must actually have fired in this configuration.
  EXPECT_GT(brute_result.medium.totals().pair_lost_burst, 0u);
}

TEST(MediumEquivalence, TankScenarioWithCollisionsAndCrossTraffic) {
  // Heavier channel contention exercises carrier sense, backoff, and the
  // collision window bookkeeping on both paths.
  scenario::TankScenarioParams params;
  params.rows = 3;
  params.cols = 10;
  params.speed_hops_per_s = 2.0;
  params.radio.loss_probability = 0.1;
  params.radio.carrier_sense_miss = 0.2;
  scenario::CrossTrafficConfig noise;
  noise.senders = 6;
  noise.period = Duration::millis(200);
  noise.payload_bytes = 30;
  params.cross_traffic = noise;
  params.seed = 31;

  scenario::TankScenarioParams brute = params;
  brute.radio.use_spatial_index = false;
  scenario::TankScenarioParams indexed = params;
  indexed.radio.use_spatial_index = true;

  scenario::TankScenario brute_run(brute);
  const scenario::TankRunResult brute_result = brute_run.run();
  scenario::TankScenario indexed_run(indexed);
  const scenario::TankRunResult indexed_result = indexed_run.run();

  EXPECT_EQ(brute_run.sim().events_fired(), indexed_run.sim().events_fired());
  expect_medium_stats_eq(brute_result.medium, indexed_result.medium);
  EXPECT_EQ(brute_result.tracking.distinct_labels,
            indexed_result.tracking.distinct_labels);
}

TEST(MediumEquivalence, NeighborsMatchBruteForceOnScatteredField) {
  // Random-ish scatter (deterministic LCG) including nodes with negative
  // coordinates, nodes sharing a grid cell, and nodes exactly on cell
  // boundaries.
  sim::Simulator sim_a(5);
  sim::Simulator sim_b(5);
  radio::RadioConfig indexed;
  indexed.use_spatial_index = true;
  radio::RadioConfig brute;
  brute.use_spatial_index = false;
  radio::Medium medium_a(sim_a, indexed);
  radio::Medium medium_b(sim_b, brute);

  std::uint64_t lcg = 12345;
  auto next_coord = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    // Spread over [-30, 30); comm radius 6 => many occupied cells.
    return static_cast<double>(static_cast<std::int64_t>(lcg >> 40) % 600) /
               10.0 -
           30.0;
  };
  const std::size_t n = 300;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 pos{next_coord(), next_coord()};
    medium_a.attach(NodeId{i}, pos);
    medium_b.attach(NodeId{i}, pos);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const auto fast = medium_a.neighbors(NodeId{i});
    const auto slow = medium_b.neighbors(NodeId{i});
    ASSERT_EQ(fast.size(), slow.size()) << "node " << i;
    for (std::size_t k = 0; k < fast.size(); ++k) {
      EXPECT_EQ(fast[k], slow[k]) << "node " << i << " neighbor " << k;
    }
  }
}

TEST(MediumEquivalence, SlowBitrateCollisionNotMissedByPruning) {
  // Regression for the prune cutoff: the seed hard-coded a 1 s window, so
  // at slow bitrates an unrelated completion could evict a frame from the
  // history while a long overlapping frame was still on the air, and the
  // collision was silently missed. The cutoff is now derived from the
  // longest observed airtime.
  sim::Simulator sim(3);
  radio::RadioConfig config;
  config.loss_probability = 0.0;
  config.carrier_sense_miss = 1.0;  // never defer: force overlaps
  config.bitrate_bps = 1'000.0;     // 157-byte frame ~ 1.26 s airtime
  radio::Medium medium(sim, config);

  class Junk final : public radio::Payload {
   public:
    explicit Junk(std::size_t bytes) : bytes_(bytes) {}
    std::size_t size_bytes() const override { return bytes_; }

   private:
    std::size_t bytes_;
  };

  int received_at_1 = 0;
  medium.attach(NodeId{0}, {0.0, 0.0});
  medium.attach(NodeId{1}, {1.0, 0.0});
  medium.attach(NodeId{2}, {2.0, 0.0});
  // A far-away pair whose only job is to trigger a prune mid-air.
  medium.attach(NodeId{3}, {100.0, 0.0});
  medium.attach(NodeId{4}, {101.0, 0.0});
  medium.set_receiver([&](NodeId to, const radio::Frame&) {
    if (to == NodeId{1}) ++received_at_1;
  });

  // Frame A: node 0, [0, 1.256 s].
  medium.send(radio::Frame{NodeId{0}, std::nullopt, radio::MsgType::kUser,
                           std::make_shared<Junk>(150)});
  // Frame C: node 2, [1.2, ~2.696 s] — overlaps A's tail at node 1.
  sim.run_for(Duration::millis(1200));
  medium.send(radio::Frame{NodeId{2}, std::nullopt, radio::MsgType::kUser,
                           std::make_shared<Junk>(180)});
  // Frame X: node 3, completes ~2.456 s, between A's end + 1 s and C's
  // delivery — with the old cutoff its prune evicted A and C was delivered
  // collision-free at node 1.
  sim.run_for(Duration::seconds(1));
  medium.send(radio::Frame{NodeId{3}, std::nullopt, radio::MsgType::kUser,
                           std::make_shared<Junk>(25)});
  sim.run_for(Duration::seconds(5));

  EXPECT_EQ(received_at_1, 0)
      << "frame C overlapped frame A at node 1 and must be corrupted";
  EXPECT_GE(medium.stats().of(radio::MsgType::kUser).pair_lost_collision, 2u);
  EXPECT_EQ(medium.active_transmissions(), 0u);
  EXPECT_LE(medium.history_size(), 3u);
}

}  // namespace
}  // namespace et
