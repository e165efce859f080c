#include <gtest/gtest.h>

#include <optional>

#include "radio/medium.hpp"
#include "sim/simulator.hpp"

/// Statistical validation of the Gilbert–Elliott burst-loss channel: the
/// long-run per-frame loss observed on a link must match the two-state
/// CTMC's stationary prediction
///
///   pi_bad = mean_bad / (mean_good + mean_bad)
///   E[loss] = (1 - pi_bad) * loss_good + pi_bad * loss_bad
///
/// across seeds, and losses must actually occur in both chain states.
namespace et::radio {
namespace {

class ProbePayload final : public Payload {
 public:
  std::size_t size_bytes() const override { return 16; }
};

struct BurstRun {
  double observed_loss = 0.0;
  std::uint64_t burst_losses = 0;
  std::uint64_t random_losses = 0;
};

/// One sender/receiver pair one grid unit apart; `frames` probes spaced
/// `spacing` apart, loss measured at the receiver.
BurstRun run_link(std::uint64_t seed, const BurstLossConfig& burst,
                  int frames, Duration spacing) {
  sim::Simulator sim(seed);
  RadioConfig config;
  config.loss_probability = 0.0;
  config.model_collisions = false;
  config.carrier_sense_miss = 0.0;
  config.burst_loss = burst;
  Medium medium(sim, config);

  int received = 0;
  medium.attach(NodeId{0}, {0.0, 0.0});
  medium.attach(NodeId{1}, {1.0, 0.0});
  medium.set_receiver([&received](NodeId to, const Frame&) {
    if (to == NodeId{1}) ++received;
  });

  for (int i = 0; i < frames; ++i) {
    medium.send(Frame{NodeId{0}, NodeId{1}, MsgType::kUser,
                      std::make_shared<ProbePayload>()});
    sim.run_for(spacing);
  }

  BurstRun out;
  const TypeStats totals = medium.stats().totals();
  out.observed_loss =
      1.0 - static_cast<double>(received) / static_cast<double>(frames);
  out.burst_losses = totals.pair_lost_burst;
  out.random_losses = totals.pair_lost_random;
  return out;
}

TEST(BurstChannelStats, LossMatchesStationaryPrediction) {
  BurstLossConfig burst;
  burst.enabled = true;
  burst.mean_good = Duration::seconds(1);
  burst.mean_bad = Duration::millis(250);
  burst.loss_good = 0.05;
  burst.loss_bad = 0.8;

  const double pi_bad = 0.25 / (1.0 + 0.25);
  const double predicted =
      (1.0 - pi_bad) * burst.loss_good + pi_bad * burst.loss_bad;
  ASSERT_NEAR(predicted, 0.20, 1e-9);

  const std::uint64_t seeds[] = {11, 12, 13};
  double mean = 0.0;
  for (const std::uint64_t seed : seeds) {
    const BurstRun run =
        run_link(seed, burst, 12'000, Duration::millis(50));
    EXPECT_NEAR(run.observed_loss, predicted, 0.05)
        << "seed " << seed << " strays from the CTMC prediction";
    EXPECT_GT(run.burst_losses, 0u)
        << "losses must occur inside bursts (seed " << seed << ")";
    EXPECT_GT(run.random_losses, 0u)
        << "losses must occur outside bursts too (seed " << seed << ")";
    mean += run.observed_loss;
  }
  mean /= 3.0;
  EXPECT_NEAR(mean, predicted, 0.025)
      << "the cross-seed mean must sit tighter on the prediction";
}

TEST(BurstChannelStats, BurstsDominateLossWhenBadStateIsLossy) {
  // With a near-lossless Good state, essentially every loss should be
  // attributed to the Bad state — the accounting split must be faithful.
  BurstLossConfig burst;
  burst.enabled = true;
  burst.mean_good = Duration::seconds(1);
  burst.mean_bad = Duration::millis(400);
  burst.loss_good = 0.001;
  burst.loss_bad = 0.9;

  const BurstRun run = run_link(7, burst, 6'000, Duration::millis(50));
  EXPECT_GT(run.burst_losses, 10 * run.random_losses);
}

TEST(BurstChannelStats, DisabledModelFallsBackToIidLoss) {
  // Burst model off: the i.i.d. loss_probability path owns the draw and
  // no burst losses are ever recorded.
  sim::Simulator sim(5);
  RadioConfig config;
  config.loss_probability = 0.3;
  config.model_collisions = false;
  config.carrier_sense_miss = 0.0;
  Medium medium(sim, config);

  int received = 0;
  medium.attach(NodeId{0}, {0.0, 0.0});
  medium.attach(NodeId{1}, {1.0, 0.0});
  medium.set_receiver([&received](NodeId to, const Frame&) {
    if (to == NodeId{1}) ++received;
  });
  const int frames = 4'000;
  for (int i = 0; i < frames; ++i) {
    medium.send(Frame{NodeId{0}, NodeId{1}, MsgType::kUser,
                      std::make_shared<ProbePayload>()});
    sim.run_for(Duration::millis(20));
  }

  const TypeStats totals = medium.stats().totals();
  EXPECT_EQ(totals.pair_lost_burst, 0u);
  EXPECT_NEAR(1.0 - static_cast<double>(received) / frames, 0.3, 0.03);
}

}  // namespace
}  // namespace et::radio
