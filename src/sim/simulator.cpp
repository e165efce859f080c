#include "sim/simulator.hpp"

#include <cassert>
#include <memory>
#include <utility>

#include "util/log.hpp"

namespace et::sim {

namespace {

/// Engine currently executing events on this thread (master or tile).
thread_local Simulator* g_engine = nullptr;
/// Op outbox of the tile this thread is currently running (parallel only).
thread_local OpOutbox* g_outbox = nullptr;

/// RAII: marks `sim` as this thread's running engine for a run loop.
struct EngineScope {
  Simulator* prev;
  explicit EngineScope(Simulator* sim) : prev(g_engine) { g_engine = sim; }
  ~EngineScope() { g_engine = prev; }
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;
};

}  // namespace

ExecutingOwnerScope::ExecutingOwnerScope(Simulator& fallback_engine,
                                         std::uint32_t owner) {
  engine_ = g_engine ? g_engine : &fallback_engine;
  prev_engine_ = g_engine;
  g_engine = engine_;
  prev_owner_ = engine_->executing_owner_;
  engine_->executing_owner_ = owner;
}

ExecutingOwnerScope::~ExecutingOwnerScope() {
  engine_->executing_owner_ = prev_owner_;
  g_engine = prev_engine_;
}

Simulator::Simulator(std::uint64_t seed, bool register_log_clock)
    : seed_(seed), root_rng_(seed) {
  if (register_log_clock) {
    Logger::instance().set_clock([this] { return now_; });
    registered_log_clock_ = true;
  }
}

Simulator::~Simulator() {
  if (registered_log_clock_) Logger::instance().clear_clock();
}

Time Simulator::ambient_now(const Simulator& fallback) {
  return g_engine ? g_engine->now_ : fallback.now_;
}

void Simulator::share_seq_table(std::shared_ptr<SeqTable> table) {
  assert(queue_.empty() && "share_seq_table before scheduling anything");
  assert(table && table->size() >= 2);
  counters_ = std::move(table);
}

std::uint64_t& Simulator::counter(std::uint32_t rank) {
  if (rank == kChannelRank) return (*counters_)[0];
  if (rank == kWorldRank) return (*counters_)[1];
  const std::size_t index = std::size_t{rank} + 2;
  if (index >= counters_->size()) counters_->resize(index + 1, 0);
  return (*counters_)[index];
}

EventKey Simulator::make_key(Time at, std::uint32_t owner) {
  std::uint64_t& seq = counter(owner);
  EventKey key{at, owner, seq};
  // Bump rule: a schedule issued while (or after) event `bound_` executed
  // must sort strictly after it, or the new event would land in this
  // engine's past. Since bound_ tracks the *currently executing* event on
  // whichever engine runs this code, the bump decision is identical in the
  // serial and parallel engines.
  if (bound_valid_ && key <= bound_) key.time = bound_.time + Duration::micros(1);
  ++seq;
  return key;
}

std::uint64_t Simulator::alloc_seq_block(std::uint32_t rank,
                                         std::uint64_t count) {
  Simulator& eng = g_engine ? *g_engine : *this;
  std::uint64_t& seq = eng.counter(rank);
  const std::uint64_t first = seq;
  seq += count;
  return first;
}

EventHandle Simulator::schedule_as(std::uint32_t owner, Time at,
                                   Callback&& fn, Duration period) {
  assert(!(forbid_world_rank_ && owner == kWorldRank));
  Simulator& eng = g_engine ? *g_engine : *this;
  const EventKey key = eng.make_key(at, owner);
  return queue_.schedule_key(key, owner, std::move(fn), period);
}

EventHandle Simulator::schedule(Duration delay, Callback&& fn) {
  assert(!delay.is_negative());
  Simulator& eng = g_engine ? *g_engine : *this;
  return schedule_as(eng.executing_owner_, eng.now_ + delay,
                            std::move(fn));
}

EventHandle Simulator::schedule_at(Time at, Callback&& fn) {
  Simulator& eng = g_engine ? *g_engine : *this;
  assert(at >= eng.now_);
  return schedule_as(eng.executing_owner_, at, std::move(fn));
}

EventHandle Simulator::schedule_owned(std::uint32_t owner, Duration delay,
                                      Callback&& fn) {
  assert(!delay.is_negative());
  Simulator& eng = g_engine ? *g_engine : *this;
  return schedule_as(owner, eng.now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at_key(EventKey key, std::uint32_t fire_owner,
                                       Callback&& fn) {
  assert(!(forbid_world_rank_ && key.rank == kWorldRank));
  // A key at or below the processed bound is an insertion into this
  // engine's executed past — a conservative-window violation if it ever
  // happens. Counted (and asserted on by tests) rather than silently
  // reordered.
  if (bound_valid_ && key <= bound_) ++late_insertions_;
  return queue_.schedule_key(key, fire_owner, std::move(fn));
}

EventHandle Simulator::schedule_periodic(Duration first_delay, Duration period,
                                         Callback&& fn) {
  Simulator& eng = g_engine ? *g_engine : *this;
  return schedule_periodic_owned(eng.executing_owner_, first_delay, period,
                                 std::move(fn));
}

EventHandle Simulator::schedule_periodic_owned(std::uint32_t owner,
                                               Duration first_delay,
                                               Duration period, Callback&& fn) {
  assert(period.is_positive() && !first_delay.is_negative());
  Simulator& eng = g_engine ? *g_engine : *this;
  return schedule_as(owner, eng.now_ + first_delay, std::move(fn), period);
}

void Simulator::rearm(EventQueue::Fired& fired) {
  // Cancelled (or cleared) from inside its own callback: the slot is gone
  // and no sequence number is spent.
  if (!queue_.still_armed(fired)) return;
  // The key a schedule issued here, after the callback, would take: owned
  // by the firing owner, the period after the firing.
  const EventKey key = make_key(now_ + fired.period, fired.fire_owner);
  queue_.rearm(std::move(fired), key);
}

void Simulator::post_op(Callback&& fn) {
  post_op_impl(Duration::zero(), /*is_send=*/false, std::move(fn));
}

void Simulator::post_radio_op(Duration entry_delay, Callback&& fn) {
  assert(!entry_delay.is_negative());
  post_op_impl(entry_delay, /*is_send=*/true, std::move(fn));
}

void Simulator::post_op_impl(Duration delay, bool is_send, Callback&& fn) {
  Simulator& eng = g_engine ? *g_engine : *this;
  const std::uint32_t owner = eng.executing_owner_;
  const EventKey key = eng.make_key(eng.now_ + delay, owner);
  if (g_outbox) {
    // Tile phase: buffer; the kernel replays into the master queue at the
    // window barrier. Key order == issue order (sends shifted by the same
    // MAC-handoff everywhere), so the replayed execution order matches the
    // serial engine exactly.
    PendingOp& op = g_outbox->emplace_back();
    op.key = key;
    op.fire_owner = owner;
    op.fn = std::move(fn);
    op.is_send = is_send;
  } else {
    // Master/setup context: radio ops skip the outbox, so the kernel's
    // pending-send tracking is fed through the hook instead.
    if (is_send && send_op_hook_) send_op_hook_(key, owner);
    queue_.schedule_key(key, owner, std::move(fn));
  }
}

void Simulator::set_watchdog(WatchdogConfig config) {
  watchdog_config_ = config;
  watchdog_ = WatchdogReport{};
  watchdog_window_sec_ = now_.to_micros() / 1'000'000;
  watchdog_wall_start_ = std::chrono::steady_clock::now();
}

void Simulator::watchdog_trip(std::string reason) {
  watchdog_.tripped = true;
  watchdog_.at = now_;
  watchdog_.reason = std::move(reason);
  ET_WARN("sim", "watchdog tripped at %s: %s",
          now_.to_string().c_str(), watchdog_.reason.c_str());
}

bool Simulator::watchdog_charge() {
  if (watchdog_.tripped) return false;
  const std::int64_t sec = now_.to_micros() / 1'000'000;
  if (sec != watchdog_window_sec_) {
    if (watchdog_.events_in_window > watchdog_.peak_events_per_sim_second) {
      watchdog_.peak_events_per_sim_second = watchdog_.events_in_window;
    }
    watchdog_window_sec_ = sec;
    watchdog_.events_in_window = 0;
    watchdog_wall_start_ = std::chrono::steady_clock::now();
  }
  ++watchdog_.events_in_window;
  const WatchdogConfig& cfg = watchdog_config_;
  if (cfg.max_events_per_sim_second != 0 &&
      watchdog_.events_in_window > cfg.max_events_per_sim_second) {
    watchdog_trip("event budget exceeded: " +
                  std::to_string(watchdog_.events_in_window) +
                  " events inside simulated second " +
                  std::to_string(watchdog_window_sec_) + " (budget " +
                  std::to_string(cfg.max_events_per_sim_second) + ")");
    return false;
  }
  // The wall-clock read is a syscall; amortize it over 1024 events. An
  // event storm reaches 1024 events quickly, and a storm-free slow second
  // is a host-load problem, not a livelock.
  if (cfg.max_wall_ms_per_sim_second != 0 &&
      (watchdog_.events_in_window & 1023u) == 0) {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - watchdog_wall_start_)
            .count();
    watchdog_.wall_ms_in_window = wall_ms;
    if (wall_ms > static_cast<double>(cfg.max_wall_ms_per_sim_second)) {
      watchdog_trip("wall-clock budget exceeded: " +
                    std::to_string(wall_ms) +
                    " ms inside simulated second " +
                    std::to_string(watchdog_window_sec_) + " (budget " +
                    std::to_string(cfg.max_wall_ms_per_sim_second) + " ms)");
      return false;
    }
  }
  return true;
}

std::size_t Simulator::run_loop(EventKey bound) {
  EngineScope scope(this);
  std::size_t fired = 0;
  const bool guarded = watchdog_config_.enabled;
  while (!queue_.empty() && queue_.next_key() <= bound) {
    if (guarded && watchdog_.tripped) break;
    auto ev = queue_.pop();
    assert(ev.time >= now_);
    now_ = ev.time;
    if (guarded && !watchdog_charge()) {
      queue_.discard(ev);
      break;
    }
    bound_ = ev.key();
    bound_valid_ = true;
    executing_owner_ = ev.fire_owner;
    ev.fn();
    if (ev.period.is_positive()) rearm(ev);
    ++fired;
    ++events_fired_;
  }
  executing_owner_ = kWorldRank;
  return fired;
}

std::size_t Simulator::run_until(Time deadline) {
  const std::size_t fired = run_loop(EventKey{deadline, kWorldRank, kMaxSeq});
  // A tripped watchdog still advances the clock: drivers that loop on
  // run_for() must keep making (virtual-time) progress so the run winds
  // down instead of spinning on a frozen queue.
  if (now_ < deadline) now_ = deadline;
  return fired;
}

std::size_t Simulator::run_until_key(EventKey bound) { return run_loop(bound); }

std::size_t Simulator::run_all() {
  return run_loop(EventKey{Time::max(), kWorldRank, kMaxSeq});
}

void Simulator::finish_run(Time deadline) {
  advance_to(deadline);
  // Seal the segment: everything up to and including `deadline` is in the
  // past on every engine, so schedules issued between run segments (from
  // scenario or test code) bump identically everywhere.
  bound_ = EventKey{deadline, kWorldRank, kMaxSeq};
  bound_valid_ = true;
  executing_owner_ = kWorldRank;
}

void Simulator::set_thread_outbox(OpOutbox* outbox) { g_outbox = outbox; }

}  // namespace et::sim
