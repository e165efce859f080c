#include "sim/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace et::sim {

namespace {

/// Separation between two axis-aligned intervals (0 when they overlap).
double axis_gap(double a_min, double a_max, double b_min, double b_max) {
  if (a_max < b_min) return b_min - a_max;
  if (b_max < a_min) return a_min - b_max;
  return 0.0;
}

double rect_gap(const Rect& a, const Rect& b) {
  const double gx = axis_gap(a.min.x, a.max.x, b.min.x, b.max.x);
  const double gy = axis_gap(a.min.y, a.max.y, b.min.y, b.max.y);
  return std::hypot(gx, gy);
}

double point_rect_gap(Vec2 p, const Rect& r) {
  return distance(p, r.clamp(p));
}

/// Minimum transmissions for an effect to travel `gap`: each covers at most
/// `radius`. The epsilon rounds borderline gaps *down* — underestimating
/// hops narrows windows (safe), overestimating would widen them (unsafe).
unsigned hops_for(double gap, double radius) {
  if (gap <= 0.0 || radius <= 0.0) return 1;
  const double h = std::ceil(gap / radius - 1e-9);
  return h < 1.0 ? 1u : static_cast<unsigned>(h);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ParallelKernel::ParallelKernel(Simulator& master, const KernelConfig& config,
                               Rect world_bounds)
    : master_(master),
      world_(world_bounds),
      n_workers_(std::max(1u, config.threads)) {
  // Barrier waiters spin briefly before parking — but only when the host
  // actually has a core per participant (workers + the master). On an
  // oversubscribed host a spinning waiter steals the core the worker it is
  // waiting for needs, so park immediately instead.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  spin_limit_ = cores > n_workers_ ? 16384 : 1;
  const unsigned n_tiles =
      n_workers_ * std::max(1u, config.tiles_per_thread);
  // Factor the tile count into the rows x cols grid whose cells best match
  // the world's aspect ratio (squarest cells -> fewest cross-tile
  // neighbour pairs and the most honest hop distances).
  const double w = std::max(1e-9, world_.width());
  const double h = std::max(1e-9, world_.height());
  double best_score = std::numeric_limits<double>::infinity();
  for (unsigned r = 1; r <= n_tiles; ++r) {
    if (n_tiles % r != 0) continue;
    const unsigned c = n_tiles / r;
    const double score = std::abs(std::log((w / c) / (h / r)));
    if (score < best_score) {
      best_score = score;
      rows_ = r;
      cols_ = c;
    }
  }
  tiles_.resize(n_tiles);
  tile_rects_.reserve(n_tiles);
  for (unsigned r = 0; r < rows_; ++r) {
    for (unsigned c = 0; c < cols_; ++c) {
      tile_rects_.push_back(
          Rect{{world_.min.x + world_.width() * c / cols_,
                world_.min.y + world_.height() * r / rows_},
               {world_.min.x + world_.width() * (c + 1) / cols_,
                world_.min.y + world_.height() * (r + 1) / rows_}});
    }
  }
  for (auto& tile : tiles_) {
    // Tile simulators share the master seed so `make_rng` forks the same
    // per-mote streams; they never own the calling thread's log clock and
    // never hold world-ranked events.
    tile.sim =
        std::make_unique<Simulator>(master.seed(), /*register_log_clock=*/false);
    tile.sim->forbid_world_rank();
  }
  tile_ends_.resize(n_tiles);
  tile_bounds_.resize(n_tiles);
  // Radio-entry ops that bypass the tile outboxes (sends issued from
  // world/setup context go straight into the master queue) still have to
  // reach the window planner's pending-send set.
  master_.set_send_op_hook([this](EventKey key, std::uint32_t owner) {
    send_ops_.push_back(SendOp{key, owner});
  });
  workers_.reserve(n_workers_);
  for (unsigned w_idx = 0; w_idx < n_workers_; ++w_idx) {
    workers_.emplace_back([this, w_idx] { worker_main(w_idx); });
  }
}

ParallelKernel::~ParallelKernel() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_.store(true, std::memory_order_release);
    // Bump the phase so spinning workers notice without a wakeup.
    phase_.fetch_add(1, std::memory_order_release);
  }
  cv_work_.notify_all();
  for (auto& worker : workers_) worker.join();
  master_.set_send_op_hook({});
}

Simulator& ParallelKernel::sim_for(double x, double y) {
  const double w = world_.width();
  const double h = world_.height();
  auto clamp_idx = [](double v, unsigned n) {
    if (!(v > 0.0)) return 0u;
    const auto i = static_cast<long long>(v);
    return i >= static_cast<long long>(n) ? n - 1
                                          : static_cast<unsigned>(i);
  };
  const unsigned c =
      w > 0.0 ? clamp_idx((x - world_.min.x) / w * cols_, cols_) : 0u;
  const unsigned r =
      h > 0.0 ? clamp_idx((y - world_.min.y) / h * rows_, rows_) : 0u;
  return *tiles_[static_cast<std::size_t>(r) * cols_ + c].sim;
}

std::vector<Simulator*> ParallelKernel::all_sims() {
  std::vector<Simulator*> sims;
  sims.reserve(tiles_.size() + 1);
  sims.push_back(&master_);
  for (auto& tile : tiles_) sims.push_back(tile.sim.get());
  return sims;
}

void ParallelKernel::finalize(WindowPlan plan) {
  assert(plan.min_airtime.is_positive() &&
         "lookahead must come from the medium");
  assert(plan.rx_handoff >= plan.min_airtime);
  plan_ = std::move(plan);
  plan_valid_ = true;
  hop_cycle_ = plan_.tx_handoff + plan_.min_airtime + plan_.rx_handoff;
  // Tile-pair lookahead matrix: hops(i, j) transmissions to get from tile
  // i's rectangle into tile j's, each costing one hop cycle.
  const std::size_t n = tiles_.size();
  tile_hops_.assign(n * n, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      tile_hops_[i * n + j] =
          hops_for(rect_gap(tile_rects_[i], tile_rects_[j]), plan_.hop_radius);
    }
  }
}

void ParallelKernel::worker_main(unsigned worker_index) {
  std::uint64_t seen_phase = 0;
  for (;;) {
    // Wait for a new phase: bounded spin, then park.
    int spins = 0;
    while (phase_.load(std::memory_order_acquire) == seen_phase) {
      if (++spins < spin_limit_) {
        cpu_relax();
        continue;
      }
      std::unique_lock<std::mutex> lk(mu_);
      // Dekker pairing with the publisher: the sleeper count is raised
      // before the final phase check; the publisher bumps the phase before
      // reading the count. All four accesses are seq_cst, so one side
      // always sees the other.
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      cv_work_.wait(lk, [&] {
        return phase_.load(std::memory_order_seq_cst) != seen_phase;
      });
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      break;
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen_phase = phase_.load(std::memory_order_acquire);
    // phase_kind_, tile_bounds_ and the fanout fields are all written
    // before the phase_ bump (happens-before via the seq_cst bump/load).
    if (phase_kind_ == PhaseKind::kFanout) {
      drain_fanout();
    } else {
      for (std::size_t t = worker_index; t < tiles_.size(); t += n_workers_) {
        Simulator::set_thread_outbox(&tiles_[t].outbox);
        tiles_[t].sim->run_until_key(tile_bounds_[t]);
      }
      Simulator::set_thread_outbox(nullptr);
    }
    if (running_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        master_waiting_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_one();
    }
  }
}

void ParallelKernel::drain_fanout() {
  const auto* body = fanout_body_;
  for (;;) {
    const std::size_t g = fanout_next_.fetch_add(1, std::memory_order_seq_cst);
    if (g >= fanout_count_) return;
    (*body)(g);
  }
}

void ParallelKernel::run_pool_phase() {
  running_.store(n_workers_, std::memory_order_relaxed);
  phase_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // Parked workers re-check the phase under the lock, so pairing the
    // bump with lock+notify closes the lost-wakeup window.
    std::lock_guard<std::mutex> lk(mu_);
    cv_work_.notify_all();
  }
  // The master helps drain fan-out batches instead of idling at the join.
  if (phase_kind_ == PhaseKind::kFanout) drain_fanout();
  // Completion: bounded spin on the worker count, then park on cv_done_.
  int spins = 0;
  while (running_.load(std::memory_order_acquire) != 0) {
    if (++spins < spin_limit_) {
      cpu_relax();
      continue;
    }
    master_waiting_.store(true, std::memory_order_seq_cst);
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] {
      return running_.load(std::memory_order_seq_cst) == 0;
    });
    master_waiting_.store(false, std::memory_order_seq_cst);
    break;
  }
}

void ParallelKernel::run_fanout(std::size_t n_groups, std::size_t n_receivers,
                                const std::function<void(std::size_t)>& body) {
  stats_.fanout_batches++;
  stats_.fanout_receivers += n_receivers;
  if (n_groups <= 1) {
    for (std::size_t g = 0; g < n_groups; ++g) body(g);
    return;
  }
  fanout_body_ = &body;
  fanout_count_ = n_groups;
  fanout_next_.store(0, std::memory_order_relaxed);
  phase_kind_ = PhaseKind::kFanout;
  run_pool_phase();
  phase_kind_ = PhaseKind::kTiles;
  fanout_body_ = nullptr;
}

void ParallelKernel::run_tile_phase() {
  // Tile keys always rank below the bound's channel/world rank, so a tile
  // has work in this window iff its next event time is within its bound.
  bool any_work = false;
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    if (!tiles_[t].sim->queue_empty() &&
        tiles_[t].sim->next_event_time() <= tile_bounds_[t].time) {
      any_work = true;
      break;
    }
  }
  if (any_work) {
    const std::uint64_t t0 = wall_ns();
    run_pool_phase();
    const std::uint64_t t1 = wall_ns();
    // The master is blocked for the whole publish-to-join span while tile
    // work proceeds in parallel.
    stats_.tile_phase_ns += t1 - t0;
  }
  // Replay buffered channel ops into the master queue; the heap orders
  // them by canonical key, reproducing serial execution order exactly.
  // Radio-entry ops double as pending-send constraints for the planner.
  const std::uint64_t t2 = wall_ns();
  for (auto& tile : tiles_) {
    for (auto& op : tile.outbox) {
      if (op.is_send) send_ops_.push_back(SendOp{op.key, op.fire_owner});
      master_.schedule_at_key(op.key, op.fire_owner, std::move(op.fn));
    }
    tile.outbox.clear();
  }
  stats_.serial_phase_ns += wall_ns() - t2;
}

Time ParallelKernel::plan_tile_ends(Time deadline) {
  const std::size_t n = tiles_.size();
  const Time hard_cap = deadline + Duration::micros(1);
  Time cap = floor_ + plan_.window_cap;
  if (cap > hard_cap) cap = hard_cap;
  for (std::size_t j = 0; j < n; ++j) tile_ends_[j] = cap;
  auto constrain = [&](std::size_t j, Time at) {
    if (at < tile_ends_[j]) tile_ends_[j] = at;
  };

  // (1) Tile sources: everything tile i does this round stems from events
  // no earlier than its next pending one, and needs hops(i, j) full hop
  // cycles to be heard inside tile j.
  for (std::size_t i = 0; i < n; ++i) {
    const Time next_i = tiles_[i].sim->next_event_time();
    if (next_i > deadline) continue;
    for (std::size_t j = 0; j < n; ++j) {
      constrain(j, next_i + hop_cycle_ * static_cast<double>(
                                             tile_hops_[i * n + j]));
    }
  }

  // (2) Pending radio-entry ops: the frame enters the MAC no earlier than
  // the op's key, completes one airtime later at the earliest, and is
  // heard rx_handoff after that — within hop_radius of the sending mote.
  for (const SendOp& op : send_ops_) {
    if (op.key.time > deadline) continue;
    const Time base = op.key.time + plan_.min_airtime + plan_.rx_handoff;
    if (op.owner < plan_.n_motes && plan_.pos_of) {
      const Vec2 pos = plan_.pos_of(op.owner);
      for (std::size_t j = 0; j < n; ++j) {
        const unsigned hops =
            hops_for(point_rect_gap(pos, tile_rects_[j]), plan_.hop_radius);
        constrain(j, base + hop_cycle_ * static_cast<double>(hops - 1));
      }
    } else {
      // Sends from world/setup context have no reliable position; treat
      // them as global.
      for (std::size_t j = 0; j < n; ++j) constrain(j, base);
    }
  }

  // (3) Channel state: active transmissions and pending MAC wakeups, as
  // (earliest completion, position) pairs. Heard rx_handoff after the
  // completion, hop_radius from the source.
  channel_scratch_.clear();
  if (plan_.collect_channel) plan_.collect_channel(channel_scratch_);
  for (const auto& [done, pos] : channel_scratch_) {
    if (done > deadline) continue;
    const Time base = done + plan_.rx_handoff;
    for (std::size_t j = 0; j < n; ++j) {
      const unsigned hops =
          hops_for(point_rect_gap(pos, tile_rects_[j]), plan_.hop_radius);
      constrain(j, base + hop_cycle_ * static_cast<double>(hops - 1));
    }
  }

  // Safety floor: the rx handoff is at least one airtime, so nothing the
  // master executes at or after the floor reaches a tile before floor + δ;
  // that window is always admissible.
  const Time safety = floor_ + plan_.min_airtime;
  Time e_min = hard_cap;
  for (std::size_t j = 0; j < n; ++j) {
    if (tile_ends_[j] < safety) tile_ends_[j] = safety;
    if (tile_ends_[j] > hard_cap) tile_ends_[j] = hard_cap;
    if (tile_ends_[j] < e_min) e_min = tile_ends_[j];
  }
  return e_min;
}

std::size_t ParallelKernel::run_until(Time deadline) {
  assert(plan_valid_ && "finalize() before run_until()");
  auto total_fired = [this] {
    std::uint64_t total = master_.events_fired();
    for (auto& tile : tiles_) total += tile.sim->events_fired();
    return total;
  };
  const std::uint64_t fired_before = total_fired();
  const std::size_t n = tiles_.size();

  for (;;) {
    // Fast-forward: jump the window floor to the earliest pending event
    // anywhere, so idle stretches cost one scan instead of many windows.
    Time next = master_.next_event_time();
    for (auto& tile : tiles_) {
      const Time tile_next = tile.sim->next_event_time();
      if (tile_next < next) next = tile_next;
    }
    if (next > deadline) break;
    if (next > floor_) floor_ = next;

    const Time e_min = plan_tile_ends(deadline);
    const Time world_time = master_.next_world_time();
    const bool world_in_range = world_time <= deadline;

    // Per-tile bounds, individually capped at the next world event: world
    // events may touch any mote's state (fault injection, scenario
    // drivers), so no tile may pass one — tiles already past their bound
    // simply no-op this round.
    for (std::size_t j = 0; j < n; ++j) {
      tile_bounds_[j] =
          world_in_range && world_time < tile_ends_[j]
              ? EventKey{world_time, kChannelRank, kMaxSeq}
              : EventKey{tile_ends_[j] - Duration::micros(1), kWorldRank,
                         kMaxSeq};
    }

    enum class Mode { kCutAtWorld, kFullWindow, kFinal } mode;
    EventKey master_bound;
    if (world_in_range && world_time < e_min) {
      // Every tile is stopped at the world event's timestamp: run motes
      // and the channel up to (and including) it, then the world event
      // itself, so cross-cutting machinery observes exactly the serial
      // prefix.
      mode = Mode::kCutAtWorld;
      master_bound = EventKey{world_time, kChannelRank, kMaxSeq};
    } else if (e_min <= deadline) {
      mode = Mode::kFullWindow;
      master_bound =
          EventKey{e_min - Duration::micros(1), kWorldRank, kMaxSeq};
    } else {
      mode = Mode::kFinal;
      master_bound = EventKey{deadline, kWorldRank, kMaxSeq};
    }

    // Prepare shared world state out to the furthest bound any engine will
    // reach this round, while still single-threaded.
    if (plan_.prepare) {
      Time prep = master_bound.time;
      for (std::size_t j = 0; j < n; ++j) {
        if (tile_bounds_[j].time > prep) prep = tile_bounds_[j].time;
      }
      plan_.prepare(prep);
    }

    stats_.windows++;
    const Duration width = master_bound.time - floor_;
    stats_.window_width_total += width;
    if (width > stats_.window_width_max) stats_.window_width_max = width;

    run_tile_phase();
    const std::uint64_t master_t0 = wall_ns();
    master_.run_until_key(master_bound);
    if (mode == Mode::kCutAtWorld) {
      master_.run_until_key(EventKey{world_time, kWorldRank, kMaxSeq});
      stats_.windows_cut_world++;
      floor_ = world_time;
    } else if (mode == Mode::kFullWindow) {
      stats_.windows_full++;
      floor_ = e_min;
    } else {
      stats_.windows_final++;
    }
    // Executed radio-entry ops are no longer *pending* — their frames are
    // now active transmissions, queued behind one, or backoff wakeups, all
    // covered by the channel constraints.
    const Time executed =
        mode == Mode::kCutAtWorld ? world_time : master_bound.time;
    std::erase_if(send_ops_, [executed](const SendOp& op) {
      return op.key.time <= executed;
    });
    stats_.serial_phase_ns += wall_ns() - master_t0;
    if (mode == Mode::kFinal) break;
  }

  master_.finish_run(deadline);
  for (auto& tile : tiles_) tile.sim->finish_run(deadline);
  if (floor_ < deadline) floor_ = deadline;
  return static_cast<std::size_t>(total_fired() - fired_before);
}

}  // namespace et::sim
