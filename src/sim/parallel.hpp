#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/kernel_config.hpp"
#include "sim/simulator.hpp"
#include "util/geometry.hpp"
#include "util/time.hpp"

/// Conservative parallel discrete-event kernel.
///
/// Motes are partitioned into spatial tiles: the world rectangle is split
/// into a rows x cols block grid (the factorization of the tile count whose
/// cells best match the world's aspect ratio), one tile per block. Each
/// tile is a logical process: a private `Simulator` holding that tile's
/// mote-owned events (timers, CPU tasks, frame receptions). The radio
/// medium and all world machinery (scenario drivers, environment, fault
/// injection, monitors) stay on the master simulator.
///
/// Synchronization is a barrier-window scheme. The planner derives one
/// bound per tile and per round from the actual constraint sources:
///
///   - every other tile's earliest pending event, pushed through the
///     tile-pair lookahead matrix δ(i, j): anything tile i does this round
///     stems from an event no earlier than its next-event time, and its
///     effects need at least hops(i, j) MAC-entry + airtime + rx-handoff
///     cycles to travel the gap between the tile rectangles;
///   - pending radio-entry ops (sends already issued but not yet executed
///     by the master), which cannot be heard before their key plus one
///     airtime plus the rx handoff;
///   - transmissions currently on the air and scheduled MAC wakeups
///     (backoff expiries, turnaround gaps), positioned point sources the
///     medium reports each round.
///
/// The per-tile bound is the minimum over those sources, never below
/// floor + `δ` (the rx handoff is at least one minimum frame airtime `δ`,
/// so no reception can land sooner) and never past the next world event,
/// the run deadline, or a configurable cap. The master runs to the
/// *minimum* tile bound — it must not outrun any tile, or ops replayed
/// later could land in its past. Tiles whose bound regressed simply no-op
/// for a round. Each window runs in three steps:
///
///   1. tile phase (parallel): every tile runs its events up to its own
///      bound, buffering channel ops (sends, receiver toggles, journal
///      appends) into a per-tile outbox keyed by canonical (time, owner,
///      seq) keys;
///   2. op flush + master phase (serial): outboxes are replayed into the
///      master queue where they execute in canonical key order together
///      with medium-internal events (backoff, completions, deliveries);
///   3. world events, if the window was cut at one (windows never span a
///      world event, so cross-cutting machinery like fault injection and
///      scenario drivers observes exactly the serial prefix — tiles are
///      individually capped at the world event's timestamp too).
///
/// During the master phase, broadcast deliveries with a large candidate
/// set are fanned back out to the worker pool (run_fanout), sharded by
/// receiving tile; per-receiver RNG streams and pre-assigned reception
/// keys make the outcome independent of sampling order.
///
/// Because every event carries the same canonical key it would have on the
/// serial engine, and windows are cut so that no event can
/// observe state from events with larger keys, the interleaved execution
/// is a permutation-free replay of the serial order: same seed ⇒ identical
/// per-mote event order, RNG draws, metrics, and bench rows, for any
/// thread or tile count.
namespace et::sim {

/// Measured behaviour of one parallel run: how many barrier windows were
/// executed, how wide they were, where the wall-clock time went, and how
/// much work the delivery fan-out offloaded. This is how the Amdahl serial
/// fraction stops being a guess: `serial_fraction()` is the measured share
/// of kernel wall time spent in the single-threaded master phase.
struct ParallelKernelStats {
  /// Barrier rounds executed (each round = one tile phase + one master
  /// phase, i.e. two barrier crossings).
  std::uint64_t windows = 0;
  /// Rounds cut short at a world event (fault injection, monitors, ...).
  std::uint64_t windows_cut_world = 0;
  /// Rounds that ran a full planner-bounded window.
  std::uint64_t windows_full = 0;
  /// Rounds cut at the run_until() deadline.
  std::uint64_t windows_final = 0;
  /// Sum and max of executed master-window widths (floor to master bound).
  Duration window_width_total = Duration::zero();
  Duration window_width_max = Duration::zero();
  /// Wall-clock nanoseconds of the parallel tile phase (publish to join).
  /// The master is blocked at the barriers for exactly this span, so it is
  /// also the master's barrier wait.
  std::uint64_t tile_phase_ns = 0;
  /// Wall-clock nanoseconds of the serial master phase (op replay + channel
  /// + world events).
  std::uint64_t serial_phase_ns = 0;
  /// Delivery fan-out batches dispatched to the worker pool, and the total
  /// receiver attempts they carried (see radio::Medium parallel delivery).
  std::uint64_t fanout_batches = 0;
  std::uint64_t fanout_receivers = 0;

  double mean_window_width_us() const {
    return windows == 0 ? 0.0
                        : window_width_total.to_seconds() * 1e6 /
                              static_cast<double>(windows);
  }
  /// Fraction of accounted kernel wall time spent in the serial master
  /// phase — the Amdahl ceiling on speedup is 1 / serial_fraction().
  double serial_fraction() const {
    const double total =
        static_cast<double>(tile_phase_ns + serial_phase_ns);
    return total == 0.0 ? 0.0 : static_cast<double>(serial_phase_ns) / total;
  }
};

/// Everything the window planner needs, wired up by the system facade once
/// the medium exists. All latencies must match what the medium actually
/// applies (the kernel asserts the basics).
struct WindowPlan {
  /// Minimum frame airtime `δ` — the planner's safety floor. Strictly
  /// positive.
  Duration min_airtime = Duration::zero();
  /// Mote-send to MAC-entry latency (Medium::tx_handoff()).
  Duration tx_handoff = Duration::zero();
  /// Completion-to-receiver handoff latency (Medium::rx_latency()).
  Duration rx_handoff = Duration::zero();
  /// Radio communication radius: one transmission travels at most this far,
  /// which is what turns tile-rectangle gaps into hop counts.
  double hop_radius = 0.0;
  /// Hard cap on how far past the floor any tile may be planned (bounds
  /// planner optimism and keeps world state preparation cheap).
  Duration window_cap = Duration::millis(250);
  /// Owner ranks below this are motes with a position (pos_of applies);
  /// pending sends from other ranks constrain every tile globally.
  std::uint32_t n_motes = 0;
  /// Appends (earliest completion time, source position) pairs for every
  /// active transmission and pending MAC wakeup
  /// (Medium::collect_channel_constraints).
  std::function<void(std::vector<std::pair<Time, Vec2>>&)> collect_channel;
  /// Position of a mote rank (Medium::position_of).
  std::function<Vec2(std::uint32_t)> pos_of;
  /// Called with each round's maximum bound time before the tile phase so
  /// shared read-only world state (trajectories) can be extended while
  /// still single-threaded.
  std::function<void(Time)> prepare;
};

class ParallelKernel {
 public:
  /// `world_bounds` is the field rectangle the motes live in; tiles are
  /// contiguous blocks of it, so the planner can reason about how far
  /// apart two tiles' motes are.
  ParallelKernel(Simulator& master, const KernelConfig& config,
                 Rect world_bounds);
  ~ParallelKernel();

  ParallelKernel(const ParallelKernel&) = delete;
  ParallelKernel& operator=(const ParallelKernel&) = delete;

  /// The tile simulator owning the mote at position (x, y). Pure function
  /// of position: the enclosing block of the rows x cols grid (positions
  /// outside the world rectangle clamp to the nearest tile).
  Simulator& sim_for(double x, double y);

  /// Every simulator of this run, master first. System uses this to share
  /// one per-owner sequence table across them all.
  std::vector<Simulator*> all_sims();

  /// Arms the window scheme. Must be called exactly once, after the medium
  /// exists and before run_until().
  void finalize(WindowPlan plan);

  /// Runs the world up to and including `deadline` in conservative
  /// windows. Returns the number of events fired across all simulators.
  std::size_t run_until(Time deadline);

  /// Executes `body(g)` for every group in [0, n_groups) on the worker
  /// pool (master participates). Groups must be mutually independent; the
  /// call returns after all have run. Used by the medium to fan large
  /// broadcast deliveries out by receiving tile; `n_receivers` is telemetry
  /// only.
  void run_fanout(std::size_t n_groups, std::size_t n_receivers,
                  const std::function<void(std::size_t)>& body);

  unsigned tile_count() const { return static_cast<unsigned>(tiles_.size()); }
  unsigned tile_rows() const { return rows_; }
  unsigned tile_cols() const { return cols_; }

  /// Telemetry accumulated since construction (or the last reset).
  const ParallelKernelStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ParallelKernelStats{}; }

 private:
  struct Tile {
    std::unique_ptr<Simulator> sim;
    OpOutbox outbox;
  };
  /// A radio-entry op the master has not executed yet: a transmission that
  /// will enter some MAC at `key.time` (or later, if bumped behind a
  /// blocker) — a constraint source for every tile its frame could reach.
  struct SendOp {
    EventKey key;
    std::uint32_t owner;
  };
  enum class PhaseKind : std::uint8_t { kTiles, kFanout };

  void worker_main(unsigned worker_index);
  /// Runs every tile with events in the window up to its entry in
  /// tile_bounds_ (parallel), then replays their op outboxes into the
  /// master queue in tile order.
  void run_tile_phase();
  /// Fills tile_ends_ with each tile's exclusive window end for the next
  /// round, planned from the constraint sources and clamped to
  /// [floor + δ, floor + cap] and to the deadline. Returns the minimum end.
  Time plan_tile_ends(Time deadline);
  /// Publishes a phase to the pool and joins it (shared by the tile phase
  /// and run_fanout). The caller has set up tile_bounds_ or the fanout
  /// fields and phase_kind_ beforehand.
  void run_pool_phase();
  void drain_fanout();

  Simulator& master_;
  Rect world_;
  unsigned rows_ = 1;
  unsigned cols_ = 1;
  unsigned n_workers_;
  /// Spin iterations before a barrier waiter parks on its cv; 1 (park at
  /// once) when the host has no spare core per participant.
  int spin_limit_ = 1;
  std::vector<Tile> tiles_;
  std::vector<Rect> tile_rects_;
  WindowPlan plan_;
  bool plan_valid_ = false;
  /// One full source-to-heard cycle: MAC entry + minimum airtime + rx
  /// handoff. The per-hop cost of the lookahead matrix.
  Duration hop_cycle_ = Duration::zero();
  /// hops(i, j): minimum number of transmissions for an effect to travel
  /// from tile i's rectangle into tile j's (>= 1). Row-major n x n.
  std::vector<unsigned> tile_hops_;
  /// Pending radio-entry ops, pruned once the master executes past them.
  std::vector<SendOp> send_ops_;
  /// Scratch: per-round channel constraints and planned bounds.
  std::vector<std::pair<Time, Vec2>> channel_scratch_;
  std::vector<Time> tile_ends_;
  std::vector<EventKey> tile_bounds_;
  /// Lower edge of the current window; every event with time <= floor_ has
  /// been executed.
  Time floor_ = Time::origin();
  ParallelKernelStats stats_;

  /// Barrier state. Windows are milliseconds of simulated time, so the
  /// kernel crosses two barriers per window at up to ~kHz rates; the fast
  /// path is lock-free (spin on `phase_` / `running_` with a bounded spin
  /// before sleeping), the mutex/cv pair is only the parked-thread fallback.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::atomic<std::uint64_t> phase_{0};
  /// What the published phase asks workers to do; written (with the fanout
  /// fields or tile_bounds_) before the phase_ release-bump.
  PhaseKind phase_kind_ = PhaseKind::kTiles;
  const std::function<void(std::size_t)>* fanout_body_ = nullptr;
  std::size_t fanout_count_ = 0;
  std::atomic<std::size_t> fanout_next_{0};
  std::atomic<unsigned> running_{0};
  std::atomic<unsigned> sleepers_{0};
  std::atomic<bool> master_waiting_{false};
  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> workers_;
};

}  // namespace et::sim
