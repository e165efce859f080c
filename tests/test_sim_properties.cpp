#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "radio/medium.hpp"
#include "sim/simulator.hpp"

/// Property tests of the simulation substrate: total event ordering under
/// randomized schedules, cancellation storms, and bit-level determinism of
/// full radio runs.
namespace et {
namespace {

/// Randomized schedule: events must fire in nondecreasing time order, and
/// same-time events in insertion order, regardless of insertion pattern.
class EventOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(EventOrderSweep, FiringOrderIsTotal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  sim::Simulator sim;
  struct Fired {
    std::int64_t time_us;
    int insertion;
  };
  std::vector<Fired> fired;
  int insertion = 0;
  for (int i = 0; i < 500; ++i) {
    const auto delay = Duration::micros(
        static_cast<std::int64_t>(rng.next_below(1000)));
    const int tag = insertion++;
    sim.schedule(delay, [&fired, &sim, tag] {
      fired.push_back({sim.now().to_micros(), tag});
    });
  }
  sim.run_all();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_GE(fired[i].time_us, fired[i - 1].time_us);
    if (fired[i].time_us == fired[i - 1].time_us) {
      ASSERT_GT(fired[i].insertion, fired[i - 1].insertion)
          << "same-time events must fire in insertion order";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderSweep, ::testing::Range(0, 6));

TEST(SimProperties, CancellationStorm) {
  Rng rng(99);
  sim::Simulator sim;
  std::vector<sim::EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(sim.schedule(
        Duration::micros(static_cast<std::int64_t>(rng.next_below(500))),
        [&] { ++fired; }));
  }
  int cancelled = 0;
  for (auto& handle : handles) {
    if (rng.chance(0.5)) {
      handle.cancel();
      ++cancelled;
    }
  }
  sim.run_all();
  EXPECT_EQ(fired, 1000 - cancelled);
}

TEST(SimProperties, CancelFromWithinEarlierEvent) {
  sim::Simulator sim;
  bool second_fired = false;
  sim::EventHandle second = sim.schedule(Duration::millis(2),
                                         [&] { second_fired = true; });
  sim.schedule(Duration::millis(1), [&] { second.cancel(); });
  sim.run_all();
  EXPECT_FALSE(second_fired);
}

/// Determinism: two identical radio worlds with the same seed produce
/// bit-identical statistics; a different seed produces different loss
/// patterns.
TEST(SimProperties, RadioRunsAreDeterministic) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    radio::RadioConfig config;
    config.loss_probability = 0.2;
    radio::Medium medium(sim, config);
    class P final : public radio::Payload {
     public:
      std::size_t size_bytes() const override { return 12; }
    };
    int received = 0;
    for (int i = 0; i < 10; ++i) {
      medium.attach(NodeId{static_cast<std::uint64_t>(i)},
                    {static_cast<double>(i % 5), static_cast<double>(i / 5)});
    }
    medium.set_receiver(
        [&received](NodeId, const radio::Frame&) { ++received; });
    auto payload = std::make_shared<P>();
    for (int round = 0; round < 50; ++round) {
      medium.send(radio::Frame{NodeId{static_cast<std::uint64_t>(round % 10)},
                               std::nullopt, radio::MsgType::kUser, payload});
      sim.run_for(Duration::millis(20));
    }
    return std::pair{received, medium.stats().totals().pair_delivered};
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(SimProperties, HeavyPeriodicLoadKeepsClockMonotonic) {
  sim::Simulator sim;
  Time last = Time::origin();
  bool monotonic = true;
  for (int i = 0; i < 20; ++i) {
    sim.schedule_periodic(Duration::micros(70 + i), Duration::micros(90 + i),
                          [&] {
                            if (sim.now() < last) monotonic = false;
                            last = sim.now();
                          });
  }
  sim.run_until(Time::seconds(0.5));
  EXPECT_TRUE(monotonic);
  EXPECT_GT(sim.events_fired(), 50'000u);
}

}  // namespace
}  // namespace et
