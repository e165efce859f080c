#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

/// The discrete-event simulator driving every experiment in this repo.
///
/// One Simulator instance is single-threaded: components schedule
/// callbacks; the simulator advances virtual time to the next event and
/// fires it. Independent runs may execute on different threads concurrently
/// (see bench/sweep_runner.hpp) — a Simulator instance shares no mutable
/// state with any other.
///
/// Events fire in canonical order: every event carries a (time, owner
/// rank, per-owner seq) key; mote-owned events rank below medium-internal
/// (channel) events, which rank below world events (scenario drivers, fault
/// injection, monitors), and equal-time events of one owner fire in the
/// order they were scheduled. The order is a pure function of the schedule
/// calls, independent of which queue an event sits in — which is what lets
/// the parallel kernel (sim/parallel.hpp) partition motes into per-tile
/// Simulators and still reproduce the serial kernel's event order bit for
/// bit.
namespace et::sim {

class Simulator;

/// No-progress / livelock watchdog budgets. A wedged MAC retry storm or a
/// zero-delay event loop shows up as virtual time crawling while the event
/// count (or wall clock) explodes; with budgets armed, the run loop trips
/// the watchdog and stops firing events instead of wedging the process —
/// chaos harnesses then fail the trial loudly (see WatchdogReport). A
/// budget of 0 disables that check.
struct WatchdogConfig {
  bool enabled = false;
  /// Max events fired inside any one simulated second.
  std::uint64_t max_events_per_sim_second = 0;
  /// Max wall-clock milliseconds spent inside any one simulated second
  /// (checked every 1024 events, so the budget should be >> 1 ms).
  std::uint64_t max_wall_ms_per_sim_second = 0;
};

/// Watchdog outcome plus progress counters for telemetry.
struct WatchdogReport {
  bool tripped = false;
  /// Virtual time at the trip (meaningless unless tripped).
  Time at;
  std::string reason;
  std::uint64_t events_in_window = 0;
  double wall_ms_in_window = 0.0;
  /// Progress counter: the most events fired inside any completed
  /// simulated second so far (maintained whenever the watchdog is armed).
  std::uint64_t peak_events_per_sim_second = 0;
};

/// Channel-op record buffered by a tile during a parallel window and
/// replayed into the master queue at the barrier (see Simulator::post_op).
struct PendingOp {
  EventKey key;
  std::uint32_t fire_owner;
  EventQueue::Callback fn;
  /// True for radio-entry ops (Medium sends posted via post_radio_op): the
  /// parallel kernel's window planner tracks them as pending transmission
  /// sources until the master executes them.
  bool is_send = false;
};
using OpOutbox = std::vector<PendingOp>;

/// Declares "the code on this thread is currently acting on behalf of
/// `owner` under engine `fallback_engine`". Used to attribute setup-time
/// and cross-layer calls (stack construction, crash/reboot, directory
/// queries issued from test code) to the mote they act on, so canonical
/// keys come out identical whether the call happens in the serial or the
/// parallel engine. When a run loop is already active on this thread, its
/// engine wins and only the owner is overridden.
class ExecutingOwnerScope {
 public:
  ExecutingOwnerScope(Simulator& fallback_engine, std::uint32_t owner);
  ~ExecutingOwnerScope();
  ExecutingOwnerScope(const ExecutingOwnerScope&) = delete;
  ExecutingOwnerScope& operator=(const ExecutingOwnerScope&) = delete;

 private:
  Simulator* engine_;
  Simulator* prev_engine_;
  std::uint32_t prev_owner_;
};

class Simulator {
 public:
  /// Move-only small-buffer callback (see EventQueue::Callback); any
  /// lambda or `std::function` converts implicitly. Every call below takes
  /// it by rvalue reference, so a callable is moved twice on its way into
  /// the queue: into the Callback made at the call site, then into its slot.
  using Callback = EventQueue::Callback;

  /// `register_log_clock = false` skips installing this simulator as the
  /// calling thread's log-timestamp source (per-tile simulators of the
  /// parallel kernel must not displace the master's clock).
  explicit Simulator(std::uint64_t seed = 1, bool register_log_clock = true);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current virtual time.
  Time now() const { return now_; }

  /// Virtual time as seen by the code currently executing on this thread:
  /// the running engine's clock if a run loop is active (master or tile),
  /// otherwise `fallback.now()`. Always equals `fallback.now()` in
  /// single-engine runs.
  static Time ambient_now(const Simulator& fallback);

  /// Master seed for this run.
  std::uint64_t seed() const { return seed_; }

  /// Derives a deterministic RNG stream for a named component.
  Rng make_rng(std::string_view component) const {
    return root_rng_.fork(component);
  }

  // --- Canonical keys ---

  /// Per-owner sequence counters, one per rank: the channel, the world,
  /// then mote 0, 1, ... Each engine starts with a table of its own and
  /// grows it on a mote rank's first use.
  using SeqTable = std::vector<std::uint64_t>;

  /// Makes this engine allocate keys from `table`, presized for every mote
  /// of the run. The master and every tile engine of a parallel run share
  /// one table, so keys come from one namespace and no engine grows it
  /// while tiles run concurrently. Must be called before anything is
  /// scheduled.
  void share_seq_table(std::shared_ptr<SeqTable> table);

  /// Tile simulators never hold world-ranked events; this arms an assert.
  void forbid_world_rank() { forbid_world_rank_ = true; }

  /// Schedules `fn` to run after `delay` (>= 0) of virtual time. The event
  /// is owned by the currently executing owner (events inherit their
  /// scheduler's owner).
  EventHandle schedule(Duration delay, Callback&& fn);

  /// Schedules `fn` at an absolute virtual time (>= now()).
  EventHandle schedule_at(Time at, Callback&& fn);

  /// Schedules `fn` with an explicit owner rank (mote timers stamp their
  /// mote id, medium internals stamp kChannelRank).
  EventHandle schedule_owned(std::uint32_t owner, Duration delay,
                             Callback&& fn);

  /// Schedules `fn` every `period`, starting after `first_delay`. The
  /// returned handle cancels every future firing, also from inside `fn`.
  /// The event keeps its slot and callback across firings: each re-arm
  /// takes its key once `fn` has returned, exactly as a schedule issued
  /// there would, and is owned by the firing event's owner — `owner`, or
  /// the scheduling owner for the unstamped overload.
  EventHandle schedule_periodic(Duration first_delay, Duration period,
                                Callback&& fn);
  EventHandle schedule_periodic_owned(std::uint32_t owner,
                                      Duration first_delay, Duration period,
                                      Callback&& fn);

  /// Inserts an event at a pre-assigned canonical key (op replay, and the
  /// medium's reception handoffs into the receiver's engine).
  EventHandle schedule_at_key(EventKey key, std::uint32_t fire_owner,
                              Callback&& fn);

  /// Allocates `count` consecutive sequence numbers for `rank` and returns
  /// the first. The medium pre-assigns one per delivery candidate so the
  /// reception keys of a fan-out batch are known before (and independent
  /// of) the per-receiver loss draws — receivers can then be sampled in any
  /// order, including concurrently, without perturbing canonical order.
  std::uint64_t alloc_seq_block(std::uint32_t rank, std::uint64_t count);

  /// Defers `fn` as a *channel op*: it is keyed with (ambient now,
  /// executing owner, next per-owner seq) and replayed through this
  /// (master) queue in key order — from a tile thread it is buffered in the
  /// tile's outbox and flushed at the window barrier. This is how
  /// mote-context side effects that touch shared state (medium sends,
  /// receiver toggles, metrics journaling) stay deterministic and
  /// thread-confined under the parallel kernel. The op runs as an event of
  /// its own, never inline.
  void post_op(Callback&& fn);

  /// post_op() for radio-entry side effects: the op is keyed `entry_delay`
  /// after the ambient now (the MAC-handoff latency) and marked `is_send`,
  /// so the parallel kernel's window planner can treat it as a
  /// pending-transmission constraint source.
  void post_radio_op(Duration entry_delay, Callback&& fn);

  /// Master-side notification for radio ops that bypass the tile outboxes
  /// (sends issued from world/setup context). The parallel kernel installs
  /// this to keep its pending-send constraint set complete.
  void set_send_op_hook(std::function<void(EventKey, std::uint32_t)> hook) {
    send_op_hook_ = std::move(hook);
  }

  /// Times a schedule_at_key() landed at or below this engine's processed
  /// bound — i.e. in its executed past. Always zero when the parallel
  /// kernel's window bounds are correct (the conservative-synchronization
  /// precondition); exposed so tests can assert exactly that.
  std::uint64_t late_insertions() const { return late_insertions_; }

  // --- Livelock watchdog ---

  /// Arms (or disarms) the no-progress watchdog on this engine. Once
  /// tripped, the run loops stop firing events: run_until() still advances
  /// the clock to its deadline so driving loops terminate, but the
  /// simulation is effectively frozen — callers must check
  /// watchdog_report().tripped and fail the run. Budgets apply to the
  /// engine the config is set on (the master engine in parallel runs; tile
  /// engines can be armed by the kernel separately).
  void set_watchdog(WatchdogConfig config);
  const WatchdogConfig& watchdog_config() const { return watchdog_config_; }
  const WatchdogReport& watchdog_report() const { return watchdog_; }

  /// Runs events until the queue drains or `deadline` is passed. Events at
  /// exactly `deadline` still fire; time never advances beyond it. Returns
  /// the number of events fired.
  std::size_t run_until(Time deadline);

  /// Runs every event whose canonical key is <= `bound` (parallel-kernel
  /// windows). Does not advance now_ past the last fired event.
  std::size_t run_until_key(EventKey bound);

  /// Runs for `span` of virtual time from now().
  std::size_t run_for(Duration span) { return run_until(now_ + span); }

  /// Runs until the event queue is empty. Returns events fired. Use only in
  /// tests with finite schedules (periodic events never drain).
  std::size_t run_all();

  /// Seals a run segment at `deadline`: advances now() and sets the
  /// processed bound so later schedule calls (between run segments) key
  /// identically in the serial and parallel engines.
  void finish_run(Time deadline);

  void advance_to(Time t) {
    if (now_ < t) now_ = t;
  }

  bool queue_empty() const { return queue_.empty(); }
  Time next_event_time() const {
    return queue_.empty() ? Time::max() : queue_.next_time();
  }
  /// Earliest pending world-ranked event (Time::max() if none).
  Time next_world_time() const { return queue_.next_world_time(); }

  /// Total events fired since construction.
  std::uint64_t events_fired() const { return events_fired_; }

  std::size_t pending_events() const { return queue_.size(); }

  /// Installs/clears the calling thread's op outbox (parallel kernel only).
  static void set_thread_outbox(OpOutbox* outbox);

 private:
  friend class ExecutingOwnerScope;

  /// Rolls the watchdog window to now_'s simulated second and charges one
  /// event against the budgets. Returns false when the watchdog trips (the
  /// run loop must stop).
  bool watchdog_charge();
  void watchdog_trip(std::string reason);

  /// This engine's counter for `rank`, growing the table on a mote rank's
  /// first use.
  std::uint64_t& counter(std::uint32_t rank);
  /// Builds the canonical key for (at, owner), applying the bump rule: a
  /// key that would not sort strictly after the engine's processed bound is
  /// moved to bound.time + 1us. Consumes the owner's sequence counter.
  EventKey make_key(Time at, std::uint32_t owner);
  EventHandle schedule_as(std::uint32_t owner, Time at, Callback&& fn,
                          Duration period = Duration::zero());
  /// Puts a periodic event back after its callback returned, unless the
  /// callback cancelled it.
  void rearm(EventQueue::Fired& fired);
  void post_op_impl(Duration delay, bool is_send, Callback&& fn);
  /// Fires events in key order while the next key is <= `bound`.
  std::size_t run_loop(EventKey bound);

  Time now_ = Time::origin();
  EventQueue queue_;
  std::uint64_t seed_;
  Rng root_rng_;
  std::uint64_t events_fired_ = 0;
  bool registered_log_clock_ = false;

  // Canonical-key state.
  bool forbid_world_rank_ = false;
  std::uint32_t executing_owner_ = kWorldRank;
  /// Key of the last event this engine fired (or the seal of the last run
  /// segment); schedules that would not sort after it are bumped.
  EventKey bound_{};
  bool bound_valid_ = false;
  std::shared_ptr<SeqTable> counters_ = std::make_shared<SeqTable>(2, 0);
  std::uint64_t late_insertions_ = 0;
  std::function<void(EventKey, std::uint32_t)> send_op_hook_;

  // Watchdog state (cold unless armed).
  WatchdogConfig watchdog_config_;
  WatchdogReport watchdog_;
  std::int64_t watchdog_window_sec_ = -1;
  std::chrono::steady_clock::time_point watchdog_wall_start_;
};

}  // namespace et::sim
