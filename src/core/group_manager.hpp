#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/aggregate_state.hpp"
#include "core/context_type.hpp"
#include "core/events.hpp"
#include "core/messages.hpp"
#include "core/sense_registry.hpp"
#include "node/mote.hpp"
#include "util/lru_map.hpp"

/// Group management services (§5.2): maintains context-label coherence.
///
/// Design constraints from the paper: "group management services must be
/// very lightweight and dynamic... no single entity has to know the current
/// group membership and no consistent distributed state is assumed." The
/// protocol keeps a single majority leader per tracked entity through:
///  - periodic leader heartbeats flooding the group (and `h` hops past its
///    perimeter) carrying the leader's weight and committed object state,
///  - a member *receive timer* (2.1 x heartbeat period) triggering
///    leadership takeover on leader failure,
///  - a non-member *wait timer* (4.2 x heartbeat period) suppressing
///    spurious labels near a known group,
///  - leader weights (count of member reports absorbed) that let heavier
///    labels suppress spurious lighter ones,
///  - an explicit relinquish handoff when a leader stops sensing.
namespace et::core {

enum class Role : std::uint8_t { kIdle, kMember, kLeader };

const char* role_name(Role role);

struct GroupConfig {
  /// Leader heartbeat period; the central knob of Fig. 5.
  Duration heartbeat_period = Duration::seconds(0.5);
  /// Receive timer = factor x heartbeat period ("more than twice longer
  /// ... to allow for message loss"; best results at 2.1 per §6.2).
  double receive_timer_factor = 2.1;
  /// Wait timer = factor x heartbeat period ("must be longer than the
  /// receive timer"; best results at 4.2 per §6.2).
  double wait_timer_factor = 4.2;
  /// Hops past the group perimeter that heartbeats travel (h): non-members
  /// rebroadcast heartbeats while budget remains. "If the communication
  /// radius is large enough, h may be zero, since neighboring non-member
  /// nodes would hear the leader's broadcast anyway" — the default here,
  /// since CR (6) far exceeds the sensing radii under study.
  std::uint8_t perimeter_hops = 0;
  /// Transmit-power limit for heartbeat frames, in grid units. Models the
  /// Fig. 4 settings ("heartbeats only within [sensing] radius" vs
  /// "propagate past sensing radius"). Unset = full radio range.
  std::optional<double> heartbeat_range;
  /// When true a leader that stops sensing hands leadership off explicitly
  /// (the "relinquish" optimisation of §6.2); when false it goes silent and
  /// the group recovers via receive-timer takeover — the paper's worst-case
  /// leader-failure mode.
  bool relinquish_enabled = true;
  /// When true, members re-flood heartbeats once per sequence number so
  /// groups wider than one radio hop stay connected.
  bool member_relay_heartbeats = false;
  /// In-group relay hops for member reports whose leader is out of direct
  /// radio range (0 disables the multi-hop data-collection path).
  std::uint8_t report_relay_hops = 3;
  /// Disable leader-weight based suppression of spurious labels (ablation).
  bool weight_suppression_enabled = true;
  /// Leadership-epoch fencing: every takeover/succession bumps a per-label
  /// epoch carried in heartbeats and reports. Members ignore heartbeats
  /// from stale (lower-epoch) incarnations; a leader never yields to one
  /// and absorbs a newer rival's epoch when it wins a duel; a leader that
  /// receives member reports carrying a higher epoch steps down (the only
  /// way to fence a stale leader that is out of heartbeat range of its
  /// successor). Without all this, a partitioned ex-leader and the
  /// successor elected on the other side can both report under one label
  /// after the partition heals (the id tiebreak only resolves pairs that
  /// hear each other's heartbeats). Disable only to demonstrate that
  /// failure mode (the invariant-oracle regression tests do).
  bool epoch_fencing_enabled = true;
  /// A lighter label yields to a heavier same-type label only when their
  /// tracked-entity position estimates are within this distance — i.e.
  /// they plausibly track the same stimulus. Physically separated entities
  /// keep distinct labels (§3.2.1). Scale with the sensing radius
  /// (~2 x SR).
  double suppression_radius = 2.0;
  /// Non-members remember a nearby label (wait timer) only when its
  /// estimate is within this distance of them — the label could be for an
  /// entity they are about to sense. Scale with the sensing radius
  /// (~2 x SR + 1).
  double wait_radius = 3.0;
};

/// What every group manager of a deployment needs of one context type: the
/// sense predicates resolved from the registry and the member report period
/// P_e. Resolved once per deployment and shared by all of its motes.
struct GroupTypeProfile {
  const SensePredicate* activation = nullptr;
  const SensePredicate* deactivation = nullptr;  // null: !activation
  Duration report_period = Duration::seconds(1);
};

/// Resolves `specs` against `senses` (every named predicate must be
/// registered). P_e = L_e - d from the type's tightest variable (§3.2.3),
/// floored so tiny freshness values cannot melt the channel.
std::vector<GroupTypeProfile> resolve_group_types(
    const std::vector<ContextTypeSpec>& specs, const SenseRegistry& senses);

/// What every group manager (and transport) of a deployment shares.
/// EnviroTrackSystem owns one, and everything it refers to, for as long as
/// its stacks live.
struct GroupDeployment {
  const std::vector<ContextTypeSpec>& specs;
  /// resolve_group_types of `specs`.
  const std::vector<GroupTypeProfile>& types;
  const AggregationRegistry& aggregations;
  const GroupConfig& config;
  /// The engine that journals protocol events: each event is one op
  /// posted here (sim::Simulator::post_op), so observers run on the master
  /// thread in canonical order even when the emitting mote runs on a tile.
  sim::Simulator& master;
  /// The observers of every group event and every transport event, in
  /// registration order. An event goes to the observers registered when it
  /// is emitted.
  const std::vector<GroupObserver*>& group_observers;
  const std::vector<TransportObserver*>& transport_observers;
};

/// Receives a group manager's leadership edges and leader observations.
/// The middleware stack implements it and fans the calls out to the
/// context runtime (attach / detach tracking objects), the directory
/// (register, re-stamp, withdraw) and the transport (forwarding pointers).
class LeadershipListener {
 public:
  /// This node starts leading `label` with the inherited persistent state.
  virtual void on_leader_start(TypeIndex type, LabelId label,
                               const PersistentState& state) = 0;
  /// This node stops leading `label`.
  virtual void on_leader_stop(TypeIndex type, LabelId label) = 0;
  /// A heartbeat revealed the current leader of a label.
  virtual void on_leader_observed(TypeIndex type, LabelId label,
                                  NodeId leader, Vec2 leader_pos) = 0;
  /// A sitting leader's epoch changed without a leadership edge (it
  /// absorbed a higher rival epoch in a same-label duel).
  virtual void on_epoch_changed(TypeIndex type, std::uint64_t epoch) = 0;
  /// This node's label died for good (suppressed into a heavier label).
  virtual void on_label_retired(TypeIndex type, LabelId label,
                                std::uint64_t epoch) = 0;

 protected:
  ~LeadershipListener() = default;
};

struct GroupStats {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_relayed = 0;
  std::uint64_t reports_sent = 0;
  std::uint64_t reports_received = 0;
  std::uint64_t labels_created = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t relinquishes = 0;
  std::uint64_t yields = 0;
  std::uint64_t suppressions = 0;
  std::uint64_t joins = 0;
  /// Leaders that stepped down on higher-epoch evidence (stale incarnation
  /// fenced after a partition heal).
  std::uint64_t fenced = 0;
  /// Heartbeats from a stale (lower-epoch) leader incarnation that a member
  /// refused to follow, or that a same-label leader refused to yield to.
  std::uint64_t stale_heartbeats_ignored = 0;
  /// Same-label duels won against a newer incarnation (the rival's higher
  /// epoch was adopted so downstream fencing keeps accepting this leader).
  std::uint64_t epochs_absorbed = 0;

  /// Adds every counter of `other` (sums over motes).
  GroupStats& operator+=(const GroupStats& other) {
    heartbeats_sent += other.heartbeats_sent;
    heartbeats_relayed += other.heartbeats_relayed;
    reports_sent += other.reports_sent;
    reports_received += other.reports_received;
    labels_created += other.labels_created;
    takeovers += other.takeovers;
    relinquishes += other.relinquishes;
    yields += other.yields;
    suppressions += other.suppressions;
    joins += other.joins;
    fenced += other.fenced;
    stale_heartbeats_ignored += other.stale_heartbeats_ignored;
    epochs_absorbed += other.epochs_absorbed;
    return *this;
  }
};

/// Per-mote group-management service. Owns the kHeartbeat, kReport, and
/// kRelinquish message types on its mote.
class GroupManager {
 public:
  /// How often each mote evaluates its sense_e() predicates; condition-
  /// invoked methods run on the same cadence.
  static constexpr Duration kSensePollPeriod = Duration::millis(250);

  /// `deployment` must outlive the manager.
  GroupManager(node::Mote& mote, const GroupDeployment& deployment);

  GroupManager(const GroupManager&) = delete;
  GroupManager& operator=(const GroupManager&) = delete;

  /// Begins sense polling. Call once after all callbacks are wired.
  void start();

  /// Crash-stops the service: cancels all timers and goes silent without
  /// notifying anybody. Models node failure for fault-injection tests.
  void crash();

  /// Restarts a crashed service: wipes all volatile protocol state (roles,
  /// labels, wait memory, dedup caches) and resumes sense polling with a
  /// fresh random phase. The rebooted node rejoins groups like a factory-new
  /// mote — any state handoff must come from peers' heartbeats.
  void reboot();

  bool alive() const { return alive_; }

  /// Installs the one receiver of leadership edges (null: none).
  void set_listener(LeadershipListener* listener) { listener_ = listener; }

  /// Directory fence notice (see Directory::set_leader_fenced): the
  /// directory rendezvous holds a registration for `label` at `epoch`,
  /// above the epoch this node leads it under. Steps down iff this node
  /// still leads that label at a lower epoch and fencing is enabled —
  /// the long-range complement to the member-report fence, for stale
  /// leaders whose successor is beyond every heartbeat path.
  void on_directory_fence(TypeIndex type, LabelId label,
                          std::uint64_t epoch, NodeId incumbent,
                          Vec2 incumbent_pos);

  // --- Introspection ---
  //
  // Reads never allocate: a mote that was never engaged in `type` reads as
  // idle.
  Role role(TypeIndex type) const { return peek(type).role; }
  /// Label this node is involved with (member or leader); invalid if idle.
  LabelId current_label(TypeIndex type) const { return peek(type).label; }
  /// Leader this node believes the label has (self when leading).
  NodeId known_leader(TypeIndex type) const;
  std::uint64_t leader_weight(TypeIndex type) const {
    return peek(type).weight;
  }
  /// Leadership epoch this node currently operates under: its own epoch
  /// when leading, the last one seen from its leader when a member, 0 when
  /// idle. Stamped onto directory updates and outbound user messages so
  /// downstream consumers can fence stale incarnations.
  std::uint64_t current_epoch(TypeIndex type) const {
    const TypeState& ts = peek(type);
    switch (ts.role) {
      case Role::kLeader:
        return ts.epoch;
      case Role::kMember:
        return ts.leader_epoch_seen;
      case Role::kIdle:
        return 0;
    }
    return 0;
  }
  /// Leader-side aggregate state; nullptr unless this node leads `type`.
  AggregateStateTable* aggregates(TypeIndex type);
  /// Leader-side persistent object state (rides in heartbeats). Written by
  /// the leader's tracking objects; engages `type` on a mote that never
  /// was.
  PersistentState& persistent_state(TypeIndex type) {
    return engage(type).state;
  }
  /// This leader's best estimate of where its tracked entity is: the first
  /// valid position aggregate, else the leader's own location. Carried in
  /// heartbeats for estimate-gated label identity.
  Vec2 entity_estimate(TypeIndex type) const;
  const GroupConfig& config() const { return deployment_.config; }
  const GroupDeployment& deployment() const { return deployment_; }
  /// Zero on a mote that never heard a group frame nor was engaged.
  const GroupStats& stats() const;
  /// True once this manager has heard a group frame or been engaged
  /// (diagnostics / tests).
  bool active() const { return active_ != nullptr; }
  node::Mote& mote() { return mote_; }
  std::size_t type_count() const { return deployment_.specs.size(); }

  /// True when this node has any stake in a context: it leads or belongs
  /// to a group, remembers a nearby one (wait timer), or is deciding
  /// whether to create a label. Duty cycling keeps engaged nodes awake.
  bool engaged() const {
    const TypeState* states = engaged_states();
    if (!states) return false;
    for (std::size_t i = 0; i < type_count(); ++i) {
      const TypeState& ts = states[i];
      if (ts.role != Role::kIdle || ts.waiting || ts.creation_pending) {
        return true;
      }
    }
    return false;
  }

  Duration receive_timeout() const {
    return config().heartbeat_period * config().receive_timer_factor;
  }
  Duration wait_timeout() const {
    return config().heartbeat_period * config().wait_timer_factor;
  }

 private:
  struct TypeState {
    Role role = Role::kIdle;
    LabelId label;

    // Leader side.
    std::uint64_t weight = 0;
    std::uint32_t hb_seq = 0;
    /// Monotonically increasing leadership epoch of this label (1 at
    /// creation, +1 on every takeover/succession).
    std::uint64_t epoch = 0;
    PersistentState state;
    std::unique_ptr<AggregateStateTable> agg;
    sim::EventHandle heartbeat_timer;

    // Member side.
    NodeId leader;
    Vec2 leader_pos;
    std::uint64_t leader_weight_seen = 0;
    std::uint64_t leader_epoch_seen = 0;
    Time last_hb_heard;
    PersistentState last_state_seen;
    sim::EventHandle receive_timer;

    // Member + leader: periodic sensing reports.
    sim::EventHandle report_timer;

    // Idle side: memory of a nearby group (wait timer, §5.2).
    bool waiting = false;
    LabelId wait_label;
    NodeId wait_leader;
    Vec2 wait_leader_pos;
    std::uint64_t wait_weight = 0;
    std::uint64_t wait_epoch = 0;
    PersistentState wait_state;
    sim::EventHandle wait_timer;

    // Deferred label creation.
    bool creation_pending = false;
    sim::EventHandle creation_timer;

    // Relinquish candidacy.
    sim::EventHandle candidacy_timer;
    Time relinquish_heard;
    std::uint64_t cand_weight = 0;
    std::uint64_t cand_epoch = 0;
    PersistentState cand_state;
  };

  /// What a manager needs once it has heard a group frame or been engaged.
  struct Active {
    LruMap<std::uint64_t, bool> hb_seen{256};  // heartbeat (label, seq) dedup
    LruMap<std::uint64_t, bool> report_seen{256};  // relayed-report dedup
    /// One state per context type, allocated on the first engagement in
    /// any type (creation pending, wait memory, or a role) and kept from
    /// then on: deferred timers and CPU tasks refer to it.
    std::unique_ptr<TypeState[]> types;
    GroupStats stats;
  };

  /// The active part, allocated on the first group frame or engagement
  /// and kept from then on.
  Active& activate();
  /// The per-type states, or null if this node was never engaged.
  TypeState* engaged_states() const {
    return active_ ? active_->types.get() : nullptr;
  }
  /// This node's state for `type`, or null if it was never engaged in it.
  TypeState* find(TypeIndex type) {
    TypeState* states = engaged_states();
    return states ? &states[type] : nullptr;
  }
  /// This node's state for `type`, or a default (idle) state if it was
  /// never engaged in it.
  const TypeState& peek(TypeIndex type) const;
  /// This node's state for `type`, allocating the per-type states on the
  /// first engagement.
  TypeState& engage(TypeIndex type);
  /// This node's state for `type`, which must be engaged.
  TypeState& state_of(TypeIndex type) { return active_->types[type]; }

  void poll_senses();
  /// (Re)starts the periodic sense poll with a fresh random phase.
  void arm_poll_timer();
  /// Evaluates the type's sense_e() condition for a node in `role`: the
  /// activation predicate when idle, the deactivation one (default: not
  /// activated) when active.
  bool is_sensing(TypeIndex type, Role role) const;

  // Role transitions.
  void create_label(TypeIndex type);
  void become_leader(TypeIndex type, LabelId label, std::uint64_t weight,
                     std::uint64_t epoch, PersistentState inherited,
                     GroupEvent::Kind cause);
  void stop_leading(TypeIndex type, GroupEvent::Kind cause, NodeId peer);
  /// `state_seen` is the joined label's last known persistent state (from
  /// the heartbeat or wait-path memory that triggered the join); it seeds
  /// `last_state_seen` so a member that takes over before hearing another
  /// heartbeat still restores the §5.2 handoff state. Taken by value: call
  /// sites pass fields of the TypeState this method mutates.
  void become_member(TypeIndex type, LabelId label, NodeId leader,
                     Vec2 leader_pos, std::uint64_t leader_weight,
                     std::uint64_t leader_epoch, PersistentState state_seen);
  void leave_group(TypeIndex type);

  // Protocol actions.
  void send_heartbeat(TypeIndex type);
  void send_report(TypeIndex type);
  void start_report_timer(TypeIndex type);
  void arm_receive_timer(TypeIndex type);
  void on_receive_timeout(TypeIndex type);
  void relinquish(TypeIndex type);

  // Message handlers.
  void handle_heartbeat(const radio::Frame& frame);
  void handle_report(const radio::Frame& frame);
  void handle_relinquish(const radio::Frame& frame);

  /// Journals one event to the deployment's group observers: one op on
  /// the master engine, whatever the number of observers.
  void emit(GroupEvent::Kind kind, TypeIndex type, LabelId label, NodeId peer,
            std::uint64_t weight, std::uint64_t epoch);

  node::Mote& mote_;
  const GroupDeployment& deployment_;
  /// Most motes of a large field never hear a group frame nor sense
  /// anything, and never allocate it.
  std::unique_ptr<Active> active_;
  LeadershipListener* listener_ = nullptr;
  sim::EventHandle poll_timer_;
  std::uint32_t next_label_seq_ = 0;
  bool alive_ = true;
  bool started_ = false;
};

}  // namespace et::core
