/// Stress tests for the slab-backed EventQueue: cancellation-heavy churn,
/// slot reuse behind stale handles (generation checks), handle lifetime
/// beyond the queue, and eager release of cancelled callbacks' captures.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "move_counter.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace et {
namespace {

/// Schedules `fn` at `at` for one owner, keyed in issue order — the
/// per-owner sequence the Simulator assigns.
sim::EventHandle schedule_at(sim::EventQueue& queue, Time at,
                         sim::EventQueue::Callback fn) {
  static std::uint64_t seq = 0;
  return queue.schedule_key(sim::EventKey{at, 0, seq++}, 0, std::move(fn));
}

TEST(EventQueueStress, CancellationChurnReusesSlots) {
  sim::EventQueue queue;
  // Many rounds of schedule-everything / cancel-everything: the slab must
  // recycle slots instead of growing with total scheduled count.
  for (int round = 0; round < 50; ++round) {
    std::vector<sim::EventHandle> handles;
    handles.reserve(100);
    for (int i = 0; i < 100; ++i) {
      handles.push_back(schedule_at(queue, Time::seconds(i + 1), [] {}));
    }
    EXPECT_EQ(queue.size(), 100u);
    for (auto& h : handles) h.cancel();
    EXPECT_EQ(queue.size(), 0u);
    for (const auto& h : handles) EXPECT_FALSE(h.pending());
  }
  // 5000 events were scheduled in total; at most 100 were ever live.
  EXPECT_LE(queue.slot_capacity(), 100u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueStress, StaleHandleCannotCancelSlotSuccessor) {
  sim::EventQueue queue;
  sim::EventHandle first = schedule_at(queue, Time::seconds(1), [] {});
  first.cancel();
  ASSERT_FALSE(first.pending());

  // The freed slot is recycled; the old handle must miss the new occupant.
  int fired = 0;
  sim::EventHandle second =
      schedule_at(queue, Time::seconds(2), [&] { ++fired; });
  EXPECT_LE(queue.slot_capacity(), 1u);

  first.cancel();   // stale generation: must be a no-op
  EXPECT_FALSE(first.pending());
  EXPECT_TRUE(second.pending());

  ASSERT_FALSE(queue.empty());
  auto fired_event = queue.pop();
  fired_event.fn();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fired_event.time, Time::seconds(2));
}

TEST(EventQueueStress, CancelAfterFireIsNoOp) {
  sim::EventQueue queue;
  sim::EventHandle h = schedule_at(queue, Time::seconds(1), [] {});
  queue.pop().fn();
  EXPECT_FALSE(h.pending());
  h.cancel();  // slot already recycled by pop

  // A successor in the reused slot is unaffected by the dead handle.
  sim::EventHandle next = schedule_at(queue, Time::seconds(2), [] {});
  h.cancel();
  EXPECT_TRUE(next.pending());
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueStress, ClearInvalidatesAllHandles) {
  sim::EventQueue queue;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(schedule_at(queue, Time::seconds(i + 1), [] {}));
  }
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  for (auto& h : handles) {
    EXPECT_FALSE(h.pending());
    h.cancel();  // must not throw or resurrect anything
  }
  // Slots freed by clear() are reusable.
  schedule_at(queue, Time::seconds(1), [] {});
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_LE(queue.slot_capacity(), 32u);
}

TEST(EventQueueStress, HandleOutlivesQueue) {
  std::optional<sim::EventQueue> queue;
  queue.emplace();
  sim::EventHandle h = schedule_at(*queue, Time::seconds(1), [] {});
  EXPECT_TRUE(h.pending());
  queue.reset();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not touch freed memory (liveness token expired)
}

TEST(EventQueueStress, CancelReleasesCapturedStateEagerly) {
  // Cancellation destroys the callback immediately, not lazily when the
  // stale heap entry surfaces — captured resources must not linger.
  sim::EventQueue queue;
  auto token = std::make_shared<int>(42);
  sim::EventHandle h =
      schedule_at(queue, Time::seconds(1), [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  h.cancel();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueStress, OversizedCallbacksFallBackToHeap) {
  // Callables larger than the inline buffer take the heap path; behavior
  // (fire, cancel, destruction) must be identical.
  sim::EventQueue queue;
  struct Big {
    std::uint64_t pad[12] = {};  // 96 bytes > 64-byte inline buffer
    std::shared_ptr<int> token;
    int* fired;
    void operator()() const { ++*fired; }
  };
  static_assert(sizeof(Big) > 64);

  auto token = std::make_shared<int>(0);
  int fired = 0;
  schedule_at(queue, Time::seconds(1), Big{{}, token, &fired});
  sim::EventHandle cancelled =
      schedule_at(queue, Time::seconds(2), Big{{}, token, &fired});
  EXPECT_EQ(token.use_count(), 3);
  cancelled.cancel();
  EXPECT_EQ(token.use_count(), 2);
  queue.pop().fn();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueStress, RandomizedChurnMatchesModel) {
  // Deterministic pseudo-random interleaving of schedule / cancel / fire,
  // checked against a simple reference model of which events must run.
  sim::EventQueue queue;
  std::uint64_t lcg = 99;
  auto rnd = [&lcg](std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return (lcg >> 33) % mod;
  };

  std::vector<sim::EventHandle> handles;
  std::vector<bool> cancelled;
  std::vector<bool> fired;
  std::size_t max_live = 0;
  int next_id = 0;

  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t op = rnd(10);
    if (op < 5) {  // schedule
      const int id = next_id++;
      fired.push_back(false);
      cancelled.push_back(false);
      handles.push_back(schedule_at(queue, Time::seconds(step + 1),
                                      [&fired, id] { fired[id] = true; }));
    } else if (op < 8 && !handles.empty()) {  // cancel a random handle
      const std::size_t pick = rnd(handles.size());
      if (handles[pick].pending()) cancelled[pick] = true;
      handles[pick].cancel();
      EXPECT_FALSE(handles[pick].pending());
    } else if (!queue.empty()) {  // fire the earliest
      queue.pop().fn();
    }
    max_live = std::max(max_live, queue.size());
  }
  while (!queue.empty()) queue.pop().fn();

  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_FALSE(handles[i].pending());
    EXPECT_NE(fired[i], cancelled[i])
        << "event " << i << " must fire exactly when not cancelled";
  }
  // The slab never needs more slots than the live-event watermark.
  EXPECT_LE(queue.slot_capacity(), max_live);
}

// A handle is the queue's liveness token, the queue, slot and generation:
// periodic events need nothing more.
static_assert(sizeof(sim::EventHandle) <= 32);

/// Fires the earliest event the way the simulator's run loop does: a
/// periodic event is re-armed `period` later (seq `next_seq`) unless its
/// callback cancelled it.
void fire_next(sim::EventQueue& queue, std::uint64_t& next_seq) {
  sim::EventQueue::Fired fired = queue.pop();
  fired.fn();
  if (fired.period.is_positive() && queue.still_armed(fired)) {
    const sim::EventKey key{fired.time + fired.period, fired.rank,
                            next_seq++};
    queue.rearm(std::move(fired), key);
  }
}

TEST(EventQueueStress, PeriodicSlotSurvivesItsFiringsWithFlatCapacity) {
  // One periodic event plus a one-shot issued by each firing (the way a
  // mote timer posts its CPU task): 1,000 firings never need more than the
  // two slots the first firing used.
  sim::EventQueue queue;
  std::uint64_t seq = 0;
  int ticks = 0;
  int tasks = 0;
  sim::EventHandle chain = queue.schedule_key(
      sim::EventKey{Time::seconds(1), 0, seq++}, 0,
      [&] {
        ++ticks;
        queue.schedule_key(
            sim::EventKey{Time::seconds(ticks) + Duration::millis(2), 0,
                          seq++},
            0, [&] { ++tasks; });
      },
      Duration::seconds(1));
  while (ticks < 1000) fire_next(queue, seq);
  EXPECT_EQ(queue.slot_capacity(), 2u);
  EXPECT_TRUE(chain.pending());
  EXPECT_EQ(tasks, 999);
  EXPECT_EQ(queue.size(), 2u);  // the chain and the last firing's task
}

TEST(EventQueueStress, PeriodicSelfCancelHandsSlotToOneShot) {
  sim::EventQueue queue;
  std::uint64_t seq = 0;
  int ticks = 0;
  int shots = 0;
  sim::EventHandle chain;
  sim::EventHandle shot;
  chain = queue.schedule_key(
      sim::EventKey{Time::seconds(1), 0, seq++}, 0,
      [&] {
        ++ticks;
        chain.cancel();
        shot = queue.schedule_key(sim::EventKey{Time::seconds(2), 0, seq++},
                                  0, [&] { ++shots; });
      },
      Duration::seconds(1));
  fire_next(queue, seq);
  // The one-shot reused the chain's slot; the chain did not re-arm.
  EXPECT_EQ(queue.slot_capacity(), 1u);
  EXPECT_FALSE(chain.pending());
  EXPECT_TRUE(shot.pending());
  EXPECT_EQ(queue.size(), 1u);
  fire_next(queue, seq);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(shots, 1);
}

TEST(EventQueueStress, ClearStopsPeriodicEvents) {
  sim::EventQueue queue;
  std::uint64_t seq = 0;
  int ticks = 0;
  sim::EventHandle chain = queue.schedule_key(
      sim::EventKey{Time::seconds(1), sim::kWorldRank, seq++}, 0,
      [&] { ++ticks; }, Duration::seconds(1));
  fire_next(queue, seq);
  EXPECT_TRUE(chain.pending());
  EXPECT_EQ(queue.next_world_time(), Time::seconds(2));
  queue.clear();
  EXPECT_FALSE(chain.pending());
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_world_time(), Time::max());
  EXPECT_EQ(ticks, 1);
}

TEST(EventQueueStress, PendingCallablesStayPutWhileTheSlabGrows) {
  // Four callables wait in the slab's first chunk while 5,000 more events
  // fill six more chunks: growing the slab adds chunks and never moves a
  // slot, so none of the four is moved again, and each fires intact.
  sim::EventQueue queue;
  constexpr std::uint64_t kWaiting = 4;
  int moves[kWaiting] = {};
  std::uint64_t ran_with[kWaiting] = {};
  for (std::uint64_t k = 0; k < kWaiting; ++k) {
    schedule_at(queue, Time::seconds(100 + static_cast<double>(k)),
                testing::MoveCounter{&moves[k], &ran_with[k], 1000 + k});
  }
  int moves_when_placed[kWaiting];
  for (std::uint64_t k = 0; k < kWaiting; ++k) {
    moves_when_placed[k] = moves[k];
  }

  for (int i = 0; i < 5000; ++i) {
    schedule_at(queue, Time::seconds(1) + Duration::micros(i), [] {});
  }
  EXPECT_EQ(queue.slot_capacity(), 5004u);
  for (std::uint64_t k = 0; k < kWaiting; ++k) {
    EXPECT_EQ(moves[k], moves_when_placed[k]) << "callable " << k;
  }

  while (!queue.empty()) queue.pop().fn();
  for (std::uint64_t k = 0; k < kWaiting; ++k) {
    EXPECT_EQ(ran_with[k], 1000 + k) << "callable " << k;
  }
}

TEST(EventQueueStress, SimulatorCancellationHeavyTimerChurn) {
  // The pattern group management produces: timers constantly re-armed
  // (cancel + schedule) and only occasionally allowed to fire.
  sim::Simulator sim;
  int fired = 0;
  sim::EventHandle timer;
  std::uint64_t rearms = 0;

  // Every 10 ms, re-arm a 25 ms timeout; it only fires if left alone.
  std::function<void()> rearm = [&] {
    timer.cancel();
    timer = sim.schedule(Duration::millis(25), [&] { ++fired; });
    ++rearms;
  };
  sim.schedule_periodic(Duration::zero(), Duration::millis(10),
                        [&] { if (rearms < 1000) rearm(); });
  sim.run_until(Time::seconds(30));

  EXPECT_EQ(rearms, 1000u);
  // Exactly one timeout survives: the last re-arm.
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace et
