#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "move_counter.hpp"

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

TEST(Simulator, PeriodicSelfCancelLeavesSlotToOneShot) {
  // The callback cancels its own chain, then schedules a one-shot that
  // takes the slot the chain just released. The one-shot fires; the chain
  // never re-arms into the reused slot.
  Simulator sim;
  int ticks = 0;
  int shots = 0;
  EventHandle chain;
  EventHandle shot;
  chain = sim.schedule_periodic(Duration::seconds(1), Duration::seconds(1),
                                [&] {
                                  ++ticks;
                                  chain.cancel();
                                  EXPECT_FALSE(chain.pending());
                                  shot = sim.schedule(Duration::seconds(1),
                                                      [&] { ++shots; });
                                });
  sim.run_until(Time::seconds(1));
  EXPECT_EQ(ticks, 1);
  EXPECT_FALSE(chain.pending());
  EXPECT_TRUE(shot.pending());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(shots, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, PeriodicPendingBetweenFiringsUntilCancelled) {
  Simulator sim;
  int fired = 0;
  bool pending_inside = false;
  EventHandle h;
  h = sim.schedule_periodic(Duration::seconds(1), Duration::seconds(1), [&] {
    ++fired;
    pending_inside = h.pending();
  });
  EXPECT_TRUE(h.pending());
  for (int t = 1; t <= 3; ++t) {
    sim.run_until(Time::seconds(t + 0.5));
    EXPECT_EQ(fired, t);
    EXPECT_TRUE(pending_inside);
    EXPECT_TRUE(h.pending());
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  h.cancel();
  EXPECT_FALSE(h.pending());
  // The slot is released at once: no firing is left to skip.
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run_until(Time::seconds(10)), 0u);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, PeriodicHandleOutlivesSimulator) {
  EventHandle h;
  {
    Simulator sim;
    h = sim.schedule_periodic(Duration::seconds(1), Duration::seconds(1),
                              [] {});
    sim.run_until(Time::seconds(2));
    EXPECT_TRUE(h.pending());
  }
  // The queue is gone: both calls are no-ops that touch no freed memory.
  EXPECT_FALSE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(Simulator, PeriodicInterleavesWithOneShotsInCanonicalOrder) {
  // A chain and one-shots of one owner at the same times: the re-arm key
  // is taken after the callback returns, so one-shots the callback issues
  // sort before the next firing of the same time. The literal is the order
  // of a chain that re-schedules itself from its callback; re-arming in
  // place must reproduce it exactly.
  Simulator sim;
  std::string order;
  constexpr std::uint32_t kOwner = 7;
  sim.schedule_owned(kOwner, Duration::seconds(1), [&] { order += 'a'; });
  sim.schedule_periodic_owned(kOwner, Duration::seconds(1),
                              Duration::seconds(1), [&] {
                                order += 'P';
                                sim.schedule(Duration::zero(),
                                             [&] { order += 'z'; });
                                sim.schedule(Duration::seconds(1),
                                             [&] { order += 'n'; });
                              });
  sim.schedule_owned(kOwner, Duration::seconds(2), [&] { order += 'b'; });
  sim.schedule_owned(kOwner, Duration::seconds(1), [&] { order += 'c'; });
  sim.run_until(Time::seconds(3));
  EXPECT_EQ(order, "aPczbnPznPz");
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

TEST(Simulator, SchedulingMovesACallableAtMostTwice) {
  // Into the Callback made at the call site, then into its slot: the
  // schedule calls pass the Callback on by reference.
  Simulator sim;
  int moves[4] = {};
  std::uint64_t ran_with[4] = {};
  sim.schedule(Duration::seconds(1),
               testing::MoveCounter{&moves[0], &ran_with[0], 10});
  sim.schedule_owned(3, Duration::seconds(1),
                     testing::MoveCounter{&moves[1], &ran_with[1], 11});
  sim.schedule_periodic_owned(
      3, Duration::seconds(1), Duration::seconds(5),
      testing::MoveCounter{&moves[2], &ran_with[2], 12});
  sim.post_op(testing::MoveCounter{&moves[3], &ran_with[3], 13});
  for (int k = 0; k < 4; ++k) EXPECT_LE(moves[k], 2) << "call " << k;

  sim.run_until(Time::seconds(2));
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(ran_with[k], 10 + k) << "call " << k;
  }
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
