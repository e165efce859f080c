#include "sim/simulator.hpp"

#include <gtest/gtest.h>

/// The no-progress/livelock watchdog: event-count and wall-clock budgets
/// per simulated second. A tripped watchdog freezes event firing but still
/// advances the clock, so scenario drivers (run_for loops) wind down
/// instead of spinning on a wedged queue.
namespace et::sim {
namespace {

/// Schedules an event every `period` that re-schedules itself forever.
void self_reschedule(Simulator& sim, Duration period, std::uint64_t* fired) {
  sim.schedule(period, [&sim, period, fired] {
    ++*fired;
    self_reschedule(sim, period, fired);
  });
}

TEST(SimWatchdog, EventBudgetTripsOnStorm) {
  Simulator sim(1);
  WatchdogConfig config;
  config.enabled = true;
  config.max_events_per_sim_second = 100;
  sim.set_watchdog(config);

  std::uint64_t fired = 0;
  self_reschedule(sim, Duration::millis(1), &fired);  // 1000 events/sim-s
  sim.run_for(Duration::seconds(2));

  const WatchdogReport& report = sim.watchdog_report();
  ASSERT_TRUE(report.tripped);
  EXPECT_NE(report.reason.find("event"), std::string::npos);
  EXPECT_GE(report.events_in_window, 100u);
  EXPECT_LT(report.at, Time::seconds(1)) << "the storm starts immediately";
  EXPECT_LE(fired, 105u) << "firing must stop at the budget, not run on";
  EXPECT_EQ(sim.now(), Time::seconds(2))
      << "a tripped run still advances the clock to the deadline";
}

TEST(SimWatchdog, TrippedSimulatorStaysFrozen) {
  Simulator sim(1);
  WatchdogConfig config;
  config.enabled = true;
  config.max_events_per_sim_second = 50;
  sim.set_watchdog(config);

  std::uint64_t fired = 0;
  self_reschedule(sim, Duration::millis(1), &fired);
  sim.run_for(Duration::seconds(1));
  ASSERT_TRUE(sim.watchdog_report().tripped);
  const std::uint64_t fired_at_trip = fired;

  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(fired, fired_at_trip) << "no events fire after the trip";
  EXPECT_EQ(sim.now(), Time::seconds(2));
}

TEST(SimWatchdog, TripDropsThePeriodicEventItPopped) {
  // The firing that trips the watchdog is dropped unfired; a periodic
  // event dropped that way gives its slot back instead of staying
  // pending forever.
  Simulator sim(1);
  WatchdogConfig config;
  config.enabled = true;
  config.max_events_per_sim_second = 50;
  sim.set_watchdog(config);

  std::uint64_t fired = 0;
  EventHandle storm = sim.schedule_periodic(
      Duration::millis(1), Duration::millis(1), [&fired] { ++fired; });
  sim.run_for(Duration::seconds(1));
  ASSERT_TRUE(sim.watchdog_report().tripped);
  EXPECT_EQ(fired, 50u);
  EXPECT_FALSE(storm.pending());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimWatchdog, HealthyRunDoesNotTrip) {
  Simulator sim(1);
  WatchdogConfig config;
  config.enabled = true;
  config.max_events_per_sim_second = 100;
  sim.set_watchdog(config);

  std::uint64_t fired = 0;
  self_reschedule(sim, Duration::millis(50), &fired);  // 20 events/sim-s
  sim.run_for(Duration::seconds(3));

  const WatchdogReport& report = sim.watchdog_report();
  EXPECT_FALSE(report.tripped);
  EXPECT_EQ(fired, 60u);
  EXPECT_GE(report.peak_events_per_sim_second, 20u);
  EXPECT_LE(report.peak_events_per_sim_second, 21u);
}

TEST(SimWatchdog, DisabledWatchdogNeverTrips) {
  Simulator sim(1);
  // Budgets set but enabled false: the run must be unaffected.
  WatchdogConfig config;
  config.max_events_per_sim_second = 1;
  sim.set_watchdog(config);

  std::uint64_t fired = 0;
  self_reschedule(sim, Duration::millis(1), &fired);
  sim.run_for(Duration::millis(100));
  EXPECT_FALSE(sim.watchdog_report().tripped);
  EXPECT_EQ(fired, 100u);
}

TEST(SimWatchdog, ZeroEventBudgetMeansUnbounded) {
  Simulator sim(1);
  WatchdogConfig config;
  config.enabled = true;  // armed, but only for telemetry
  sim.set_watchdog(config);

  std::uint64_t fired = 0;
  self_reschedule(sim, Duration::millis(1), &fired);
  sim.run_for(Duration::seconds(2));
  EXPECT_FALSE(sim.watchdog_report().tripped);
  EXPECT_EQ(fired, 2000u);
  EXPECT_GE(sim.watchdog_report().peak_events_per_sim_second, 999u);
}

TEST(SimWatchdog, ReArmingClearsTheReport) {
  Simulator sim(1);
  WatchdogConfig config;
  config.enabled = true;
  config.max_events_per_sim_second = 10;
  sim.set_watchdog(config);
  std::uint64_t fired = 0;
  self_reschedule(sim, Duration::millis(1), &fired);
  sim.run_for(Duration::seconds(1));
  ASSERT_TRUE(sim.watchdog_report().tripped);

  sim.set_watchdog(config);
  EXPECT_FALSE(sim.watchdog_report().tripped);
  EXPECT_TRUE(sim.watchdog_report().reason.empty());
}

}  // namespace
}  // namespace et::sim
