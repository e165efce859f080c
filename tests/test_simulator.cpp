#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace et::sim {
namespace {

/// Schedules `fn` at `at` for one owner, keyed in issue order — the
/// per-owner sequence the Simulator assigns.
EventHandle schedule_at(EventQueue& queue, Time at,
                         EventQueue::Callback fn) {
  static std::uint64_t seq = 0;
  return queue.schedule_key(EventKey{at, 0, seq++}, 0, std::move(fn));
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  schedule_at(q, Time::seconds(2), [&] { fired.push_back(2); });
  schedule_at(q, Time::seconds(1), [&] { fired.push_back(1); });
  schedule_at(q, Time::seconds(3), [&] { fired.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    schedule_at(q, Time::seconds(1), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventHandle h = schedule_at(q, Time::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  EventHandle h = schedule_at(q, Time::seconds(1), [] {});
  q.pop().fn();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or corrupt
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventHandle a = schedule_at(q, Time::seconds(1), [] {});
  schedule_at(q, Time::seconds(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  a.cancel();
  EXPECT_FALSE(q.empty());
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, AdvancesTimeToEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(Duration::seconds(1), [&] {
    times.push_back(sim.now().to_seconds());
  });
  sim.schedule(Duration::seconds(2.5), [&] {
    times.push_back(sim.now().to_seconds());
  });
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
  EXPECT_EQ(sim.now(), Time::seconds(10));  // clock advances to deadline
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(Duration::seconds(1), recurse);
  };
  sim.schedule(Duration::seconds(1), recurse);
  sim.run_until(Time::seconds(100));
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_periodic(Duration::seconds(1), Duration::seconds(1),
                        [&] { ++fired; });
  sim.run_until(Time::seconds(5));
  EXPECT_EQ(fired, 5);  // t = 1, 2, 3, 4, 5 (deadline inclusive)
  sim.run_for(Duration::seconds(3));
  EXPECT_EQ(fired, 8);
}

TEST(Simulator, PeriodicCancelStopsChain) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_periodic(Duration::seconds(1),
                                        Duration::seconds(1), [&] { ++fired; });
  sim.run_until(Time::seconds(3));
  EXPECT_EQ(fired, 3);
  h.cancel();
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, PeriodicCancelFromWithinCallback) {
  Simulator sim;
  int fired = 0;
  EventHandle h;
  h = sim.schedule_periodic(Duration::seconds(1), Duration::seconds(1), [&] {
    if (++fired == 2) h.cancel();
  });
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunAllDrainsFiniteSchedules) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 7; ++i) {
    sim.schedule(Duration::seconds(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run_all(), 7u);
  EXPECT_EQ(fired, 7);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, MakeRngIsDeterministic) {
  Simulator a(99);
  Simulator b(99);
  Rng ra = a.make_rng("x");
  Rng rb = b.make_rng("x");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(Time::seconds(4),
                  [&] { fired_at = sim.now().to_seconds(); });
  sim.run_until(Time::seconds(10));
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

}  // namespace
}  // namespace et::sim
