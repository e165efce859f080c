#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "radio/packet.hpp"
#include "radio/stats.hpp"
#include "sim/simulator.hpp"
#include "util/fifo_queue.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"

/// The shared wireless channel.
///
/// Models the MICA mote radio as the paper's experiments exercised it:
///  - local broadcast within a fixed communication radius,
///  - a single shared 50 kb/s channel,
///  - CSMA with random backoff and *no* link-layer reliability ("no
///    reliability is implemented in the MAC layer of the MICA motes"),
///  - losses from both collisions (overlapping audible transmissions,
///    hidden terminals included) and independent per-receiver noise,
///  - half-duplex endpoints (a transmitting node hears nothing).
///
/// Performance: endpoint positions are indexed in a uniform grid with cell
/// size = comm_radius, so broadcast delivery, neighbour queries and carrier
/// sense visit only the 3x3 cell neighbourhood around a point — O(nodes in
/// range), independent of network size. Carrier sense additionally scans
/// only the currently-airing transmissions, and the interference history is
/// pruned by the longest observed frame airtime. Results are bit-identical
/// to the brute-force path (`RadioConfig::use_spatial_index = false`): both
/// find the same candidate receivers in ascending node-id order, and each
/// receiver draws its loss outcome from an RNG stream of its own.
namespace et::radio {

/// Gilbert–Elliott burst-loss channel model: every receiver carries a
/// two-state (Good/Bad) continuous-time Markov chain, sampled at each
/// delivery attempt, and the random-loss probability depends on the
/// state. Real MICA-class links lose frames in bursts (interference,
/// fading, a neighbour walking past), which stresses heartbeat timeouts
/// far harder than the same average loss spread i.i.d. — a burst longer
/// than the receive timeout looks exactly like a dead leader. When
/// disabled the i.i.d. `loss_probability` path is used and no extra RNG
/// draws are consumed.
struct BurstLossConfig {
  bool enabled = false;
  /// Mean sojourn time in the Good (quiet) state.
  Duration mean_good = Duration::seconds(4);
  /// Mean sojourn time in the Bad (burst) state. Bursts approaching the
  /// receive timeout (2.1 x heartbeat period) are what break takeover.
  Duration mean_bad = Duration::millis(400);
  /// Per-frame loss probability while the receiver's chain is Good.
  double loss_good = 0.01;
  /// Per-frame loss probability while the chain is Bad.
  double loss_bad = 0.6;
};

struct RadioConfig {
  /// Communication radius in grid units (paper stress tests fix it at 6).
  double comm_radius = 6.0;
  /// Channel capacity; 50 kb/s for MICA motes.
  double bitrate_bps = 50'000.0;
  /// Independent per-(receiver, frame) loss probability, modelling ambient
  /// noise / fading the collision model does not capture. Ignored when the
  /// burst-loss model is enabled (it owns the random-loss draw then).
  double loss_probability = 0.05;
  /// Optional bursty replacement for the i.i.d. random loss above.
  BurstLossConfig burst_loss;
  /// CSMA backoff slot; actual backoff is uniform over an exponentially
  /// growing window of slots.
  Duration backoff_slot = Duration::millis(2);
  /// Probability that a sender misses an ongoing transmission during
  /// carrier sense (the MICA radio's CSMA is imperfect); a missed sense
  /// transmits anyway and collides at shared receivers. Protocol churn —
  /// e.g. handover bursts at higher target speeds — therefore translates
  /// into collision loss.
  double carrier_sense_miss = 0.1;
  /// Backoff attempts before the MAC drops the frame.
  int max_backoff_attempts = 8;
  /// Outgoing frame queue per node; overflow drops the newest frame.
  std::size_t tx_queue_capacity = 16;
  /// Broadcasts with at least this many candidate receivers are sampled on
  /// the parallel kernel's worker pool (sharded by receiving tile) instead
  /// of serially on the master. Outcomes are identical either way — the
  /// threshold only trades barrier overhead against fan-out width.
  std::size_t fanout_min_receivers = 64;
  /// Disable to study the pure random-loss channel.
  bool model_collisions = true;
  /// Route geometric queries through the uniform grid index. The
  /// brute-force O(N)-scan path is kept as the reference for equivalence
  /// tests; both produce bit-identical runs.
  bool use_spatial_index = true;
};

class Medium {
 public:
  /// Invoked when a frame is successfully received by node `to`,
  /// rx_latency() after its last bit arrives — the rx-handoff latency that
  /// gives the parallel kernel its conservative lookahead. One receiver
  /// serves every node of the medium (the mote network dispatches by id), so
  /// an endpoint holds no callable of its own. On the parallel kernel it runs
  /// on the receiver's tile, concurrently for receivers on different tiles.
  using Receiver = std::function<void(NodeId to, const Frame&)>;

  /// Link-layer header added to every payload (TinyOS AM-style).
  static constexpr std::size_t kHeaderBytes = 7;
  /// Latency between a mote handing a frame to the radio stack and the MAC
  /// taking it over (serialising the frame into the transceiver FIFO), in
  /// minimum frame airtimes.
  static constexpr double kMacHandoffAirtimes = 2.0;
  /// Completion-to-receiver handoff latency (FIFO drain + rx dispatch), in
  /// minimum frame airtimes. At least one: that is the parallel kernel's
  /// conservative lookahead.
  static constexpr double kRxHandoffAirtimes = 3.0;
  static_assert(kRxHandoffAirtimes >= 1.0);

  Medium(sim::Simulator& sim, RadioConfig config);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Airtime of the smallest possible frame (bare link-layer header). This
  /// is the kernel's lookahead bound: no transmission handed to the MAC at
  /// time t can be heard before t + min_airtime().
  Duration min_airtime() const;

  /// Routes each successful reception to the receiver's simulator
  /// (`sim_of`, the receiver's tile under the parallel kernel) instead of
  /// this medium's own. Sends and receiver toggles issued from mote context
  /// are always deferred as channel ops and medium internals are always
  /// channel-owned events, so the handoff latencies apply identically on
  /// every engine.
  void set_receiver_sims(std::function<sim::Simulator&(NodeId)> sim_of);

  /// Latency between a mote-context send() and the MAC accepting the frame.
  Duration tx_handoff() const { return tx_handoff_; }
  /// Completion-to-receiver handoff latency.
  Duration rx_latency() const { return rx_latency_; }

  /// Parallel fan-out hook. When set, broadcast deliveries with
  /// at least RadioConfig::fanout_min_receivers candidates are sharded into
  /// per-tile groups and `exec(n_groups, n_receivers, body)` must invoke
  /// `body(g)` exactly once for every g in [0, n_groups) — concurrently if
  /// it likes; groups touch disjoint endpoint and tile-queue state, and
  /// outcomes are order-independent by construction (per-receiver RNG
  /// streams, pre-assigned reception keys).
  using FanoutExec = std::function<void(
      std::size_t n_groups, std::size_t n_receivers,
      const std::function<void(std::size_t)>& body)>;
  void set_fanout_executor(FanoutExec exec) { fanout_exec_ = std::move(exec); }

  /// Window-planner feed: appends one (earliest possible
  /// completion time, source position) entry per transmission currently on
  /// the air and per scheduled MAC wakeup (pending backoff retry or
  /// post-frame turnaround — either may start a new transmission when it
  /// fires, which cannot complete before wakeup + min_airtime()). Together
  /// with the pending radio ops tracked by the kernel these are every
  /// source from which a future reception can originate.
  void collect_channel_constraints(
      std::vector<std::pair<Time, Vec2>>& out) const;

  /// Installs the receiver of every node's frames (null: frames are
  /// delivered to nobody). Set before the run starts.
  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Sizes the endpoint table for `nodes` attachments.
  void reserve(std::size_t nodes) { endpoints_.reserve(nodes); }

  /// Registers a node. Ids must be dense from 0 and attached in order.
  void attach(NodeId id, Vec2 position);

  std::size_t node_count() const { return endpoints_.size(); }
  Vec2 position_of(NodeId id) const { return endpoints_[id.value()].pos; }

  /// Per-node radio activity, the basis of energy accounting.
  struct EndpointStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bits_sent = 0;
    std::uint64_t bits_received = 0;
    /// Time spent with the receiver powered down (duty cycling).
    Duration radio_off = Duration::zero();
  };
  /// True once `id`'s radio has sent a frame or been offered one: it then
  /// holds its in-flight slot, loss stream and stats (diagnostics / tests).
  bool endpoint_active(NodeId id) const {
    return endpoints_[id.value()].active != nullptr;
  }
  const EndpointStats& endpoint_stats(NodeId id) const {
    static const EndpointStats kNeverActive;
    const Endpoint& ep = endpoints_[id.value()];
    return ep.active ? ep.active->stats : kNeverActive;
  }

  /// Powers a node's receiver down/up (duty cycling). A sleeping receiver
  /// hears nothing — frames addressed to it are lost like any other — but
  /// the node can still transmit (the radio wakes for the send). The toggle
  /// is a channel op: it takes effect after the current event, at the same
  /// simulated time.
  void set_receiver_enabled(NodeId id, bool enabled);
  bool receiver_enabled(NodeId id) const {
    return endpoints_[id.value()].receiver_enabled;
  }

  /// Fault injection: a blacked-out radio neither transmits (frames handed
  /// to the MAC are dropped) nor receives, while the node's CPU, timers and
  /// sensors keep running — a transient RF outage rather than a node crash.
  /// A frame already on the air when the blackout starts still completes.
  void set_node_blackout(NodeId id, bool blackout) {
    endpoints_[id.value()].blackout = blackout;
  }
  bool node_blackout(NodeId id) const {
    return endpoints_[id.value()].blackout;
  }

  /// Fault injection: splits the network into isolated reachability
  /// components. `component_of[node]` assigns each node a component id;
  /// frames (and interference, and carrier sense) cross component
  /// boundaries in neither direction — RF isolation, as if a wall dropped
  /// between the groups. An empty vector heals the partition.
  void set_partition(std::vector<std::uint32_t> component_of);
  void clear_partition() { set_partition({}); }
  bool partitioned() const { return !partition_of_.empty(); }
  /// Component id of `id` (0 for every node when unpartitioned).
  std::uint32_t partition_component(NodeId id) const {
    return partition_of_.empty() ? 0u : partition_of_[id.value()];
  }
  bool same_partition(NodeId a, NodeId b) const {
    return partition_of_.empty() ||
           partition_of_[a.value()] == partition_of_[b.value()];
  }
  /// Bumped on every set_partition/clear_partition; lets observers (the
  /// invariant oracle) cheaply detect topology changes.
  std::uint64_t partition_version() const { return partition_version_; }

  /// Total receiver-off time including a currently-open sleep interval.
  Duration radio_off_total(NodeId id) const {
    const Endpoint& ep = endpoints_[id.value()];
    Duration off = endpoint_stats(id).radio_off;
    if (!ep.receiver_enabled) off += sim_.now() - ep.receiver_off_since;
    return off;
  }

  /// Hands a frame to the sender's MAC, which takes it over tx_handoff()
  /// later (a channel op). It may then transmit at once, back off, or drop
  /// it (queue overflow / backoff exhaustion).
  void send(Frame frame);

  /// Carrier sense at `id`: is any transmission currently audible?
  bool channel_busy_at(NodeId id) const;

  /// Nodes within the communication radius of `id`, excluding `id`, in
  /// ascending id order.
  std::vector<NodeId> neighbors(NodeId id) const;

  bool in_range(NodeId a, NodeId b) const {
    return within_radius(endpoints_[a.value()].pos, endpoints_[b.value()].pos,
                         config_.comm_radius);
  }

  const RadioConfig& config() const { return config_; }
  const MediumStats& stats() const { return stats_; }
  void reset_stats() { stats_ = MediumStats{}; }

  /// Transmissions currently on the air (diagnostics / tests).
  std::size_t active_transmissions() const { return active_.size(); }
  /// Completed-transmission records retained for interference checks
  /// (diagnostics / tests; see prune_history()).
  std::size_t history_size() const { return history_.size(); }

 private:
  /// What a node's radio needs once it has sent a frame or been offered
  /// one. Most motes of a large field never do, and never allocate it.
  struct ActiveEndpoint {
    explicit ActiveEndpoint(Rng rng) : rx_rng(rng) {}

    /// The frame currently on the air, parked here so the completion event
    /// closure stays small enough for the event queue's inline storage.
    std::optional<Frame> in_flight;
    /// This receiver's private loss stream (burst chain and loss draws),
    /// forked per node so delivery outcomes do not depend on the order
    /// receivers are sampled in — the property that makes the parallel
    /// fan-out trivially equivalent to the serial loop. A fork depends only
    /// on the run seed and the label, so forking it on first use yields the
    /// same draws as forking it at attach time.
    Rng rx_rng;
    /// Gilbert–Elliott burst-loss chain (per receiver): current state and
    /// when it was last sampled.
    bool burst_bad = false;
    Time burst_sampled_at;
    EndpointStats stats;
  };

  /// What every node's radio holds: position, MAC state and power flags.
  struct Endpoint {
    Vec2 pos;
    FifoQueue<Frame> queue;
    Time receiver_off_since;
    std::unique_ptr<ActiveEndpoint> active;
    int backoff_attempts = 0;
    bool transmitting = false;
    bool backoff_pending = false;
    bool receiver_enabled = true;
    bool blackout = false;
  };

  /// `id`'s active part, allocated on first use. Touches only `id`'s
  /// endpoint, so fan-out groups may call it concurrently.
  ActiveEndpoint& activate(NodeId id);

  /// One on-air (or recently completed) transmission, kept for overlap
  /// checks against later-starting transmissions.
  struct Transmission {
    std::uint64_t tx_id;
    NodeId src;
    Vec2 pos;
    Time start;
    Time end;
  };

  Duration airtime_of(const Frame& frame) const;
  void send_now(Frame frame);
  void set_receiver_enabled_now(NodeId id, bool enabled);
  void try_send(NodeId id);
  void begin_transmission(NodeId id);
  void complete_transmission(NodeId id, Time start, Time end,
                             std::uint64_t tx_id);
  void deliver(const Frame& frame, Time start, Time end, std::uint64_t tx_id);
  bool audible_at(Vec2 receiver_pos, Vec2 tx_pos) const {
    return within_radius(tx_pos, receiver_pos, config_.comm_radius);
  }
  /// True when some other transmission overlapping [start, end] is audible
  /// at `pos` (collision), or the receiver itself transmitted then.
  bool corrupted_at(NodeId receiver, Time start, Time end,
                    std::uint64_t tx_id) const;
  /// Advances a receiver's Gilbert–Elliott chain to now() (exact two-state
  /// CTMC transition over the elapsed interval, one draw from the
  /// receiver's own stream) and returns whether the chain is in the Bad
  /// state. Burst loss must be enabled.
  bool sample_burst_state(ActiveEndpoint& receiver);
  void prune_history();

  /// Per-delivery outcome tallies, accumulated per fan-out group and summed
  /// into MediumStats afterwards so concurrent groups never touch shared
  /// counters.
  struct ScatterStats {
    std::uint64_t attempts = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost_collision = 0;
    std::uint64_t lost_random = 0;
    std::uint64_t lost_burst = 0;
    std::uint64_t blocked_partition = 0;
  };
  /// Delivery attempt for candidate `k` of the current batch:
  /// samples the receiver's own RNG stream, and on success schedules the
  /// reception into the receiver's simulator at the pre-assigned key
  /// (handoff, kChannelRank, seq_base + k). Touches only the receiver's
  /// endpoint, the receiver's tile queue and `acc` — safe to run
  /// concurrently for receivers on different tiles.
  void attempt_delivery(std::uint32_t k,
                        const std::vector<std::uint32_t>& candidates,
                        const Frame& frame, Time start, Time end,
                        std::uint64_t tx_id, Time handoff,
                        std::uint64_t seq_base, ScatterStats& acc);

  /// Pending MAC wakeups (backoff expiries, post-frame turnarounds),
  /// maintained for collect_channel_constraints().
  void note_mac_wakeup(Time at, NodeId id);
  void clear_mac_wakeup(NodeId id);

  // --- Spatial index (uniform grid, cell size = comm_radius) ---

  static std::uint64_t cell_key(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  std::int32_t cell_coord(double v) const;
  /// Invokes `fn(endpoint index)` for every node in the 3x3 cell block
  /// around `center` — a superset of every disc of radius <= comm_radius.
  template <typename Fn>
  void for_each_nearby(Vec2 center, Fn&& fn) const;
  /// Collects ids within `radius` of `center` (excluding `exclude`) into
  /// `out`, ascending. `out` is cleared first.
  void gather_in_radius(Vec2 center, double radius, std::uint64_t exclude,
                        std::vector<std::uint32_t>& out) const;

  sim::Simulator& sim_;
  RadioConfig config_;
  Receiver receiver_;
  /// Carrier-sense misses and backoff draws (loss draws use the
  /// receivers' own streams).
  Rng rng_;
  /// Routes receptions to the receiver's simulator; unset = sim_.
  std::function<sim::Simulator&(NodeId)> sim_of_;
  Duration rx_latency_;
  Duration tx_handoff_;
  FanoutExec fanout_exec_;
  /// Scheduled backoff/turnaround wakeups as (fire time, endpoint index);
  /// unsorted, removed when they fire. At most one per endpoint (the MAC
  /// is idle-or-backing-off per node).
  std::vector<std::pair<Time, std::uint32_t>> mac_wakeups_;
  /// Fan-out scratch (capacity recycled): candidate indices grouped by
  /// receiving simulator, the group -> simulator map, and per-group stats.
  std::vector<std::vector<std::uint32_t>> fanout_groups_;
  std::vector<sim::Simulator*> fanout_group_sims_;
  std::vector<ScatterStats> fanout_stats_;
  std::vector<Endpoint> endpoints_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> grid_;
  /// Capacity-recycled candidate buffer for deliver() (receptions are
  /// scheduled, never run inline, so nothing re-enters it mid-delivery).
  /// neighbors() uses a thread-local buffer instead, since motes on
  /// different tiles of the parallel kernel query concurrently.
  std::vector<std::uint32_t> deliver_scratch_;
  std::vector<Transmission> active_;   // currently airing
  std::vector<Transmission> history_;  // recent + active transmissions
  /// Longest airtime ever put on the air; bounds how far back a future
  /// delivery's interference window can reach (prune cutoff).
  Duration max_airtime_ = Duration::zero();
  std::uint64_t next_tx_id_ = 0;
  /// Partition component per node; empty = fully connected.
  std::vector<std::uint32_t> partition_of_;
  std::uint64_t partition_version_ = 0;
  MediumStats stats_;
};

}  // namespace et::radio
