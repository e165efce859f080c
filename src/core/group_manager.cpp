#include "core/group_manager.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace et::core {

namespace {

constexpr const char* kComponent = "group-mgmt";

/// A node that starts sensing with no memory of a nearby group defers
/// label creation by a random delay of up to this long; hearing any
/// heartbeat meanwhile converts it into a joiner. Approximates the paper's
/// creation rule ("no neighbors detecting the same condition") without
/// consistent membership knowledge.
constexpr Duration kCreationDelayMax = Duration::millis(200);
/// Estimated max in-group message delay d; member report period is
/// P_e = L_e - d (§3.2.3).
constexpr Duration kMaxMessageDelay = Duration::millis(300);
/// Floor for the report period, so tiny freshness values cannot melt the
/// channel.
constexpr Duration kMinReportPeriod = Duration::millis(100);

/// Dedup key for one heartbeat instance.
std::uint64_t hb_key(LabelId label, std::uint32_t seq) {
  return label.value() * 0x9e3779b97f4a7c15ull ^ seq;
}

/// Dedup key for one member measurement (reporter + timestamp + label).
std::uint64_t report_key(const ReportPayload& report) {
  std::uint64_t h = report.label.value() * 0x9e3779b97f4a7c15ull;
  h ^= report.reporter.value() * 0xff51afd7ed558ccdull;
  h ^= static_cast<std::uint64_t>(report.measured_at.to_micros());
  return h;
}

}  // namespace

const char* role_name(Role role) {
  switch (role) {
    case Role::kIdle:
      return "idle";
    case Role::kMember:
      return "member";
    case Role::kLeader:
      return "leader";
  }
  return "?";
}

const char* group_event_kind_name(GroupEvent::Kind kind) {
  switch (kind) {
    case GroupEvent::Kind::kLabelCreated:
      return "label-created";
    case GroupEvent::Kind::kBecameLeader:
      return "became-leader";
    case GroupEvent::Kind::kLostLeadership:
      return "lost-leadership";
    case GroupEvent::Kind::kTakeover:
      return "takeover";
    case GroupEvent::Kind::kRelinquish:
      return "relinquish";
    case GroupEvent::Kind::kYield:
      return "yield";
    case GroupEvent::Kind::kLabelSuppressed:
      return "label-suppressed";
    case GroupEvent::Kind::kJoined:
      return "joined";
    case GroupEvent::Kind::kLeft:
      return "left";
    case GroupEvent::Kind::kFenced:
      return "fenced";
  }
  return "?";
}

std::string GroupEvent::to_string() const {
  std::string s = time.to_string();
  s += " node ";
  s += std::to_string(node.value());
  s += " ";
  s += group_event_kind_name(kind);
  s += " label ";
  s += label.to_string();
  return s;
}

std::vector<GroupTypeProfile> resolve_group_types(
    const std::vector<ContextTypeSpec>& specs, const SenseRegistry& senses) {
  std::vector<GroupTypeProfile> types(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ContextTypeSpec& spec = specs[i];
    GroupTypeProfile& type = types[i];
    type.activation = &senses.get(spec.activation);
    if (spec.deactivation) type.deactivation = &senses.get(*spec.deactivation);

    // P_e = L_e - d, from the tightest variable (§3.2.3), floored.
    Duration period = Duration::max();
    for (const AggregateVarSpec& var : spec.variables) {
      period = std::min(period, var.freshness - kMaxMessageDelay);
    }
    if (spec.variables.empty()) period = Duration::seconds(1);
    type.report_period = std::max(period, kMinReportPeriod);
  }
  return types;
}

GroupManager::GroupManager(node::Mote& mote,
                           const GroupDeployment& deployment)
    : mote_(mote), deployment_(deployment) {
  assert(deployment.types.size() == deployment.specs.size());
  mote_.set_handler<&GroupManager::handle_heartbeat>(radio::MsgType::kHeartbeat,
                                                     this);
  mote_.set_handler<&GroupManager::handle_report>(radio::MsgType::kReport,
                                                  this);
  mote_.set_handler<&GroupManager::handle_relinquish>(
      radio::MsgType::kRelinquish, this);
}

GroupManager::Active& GroupManager::activate() {
  if (!active_) active_ = std::make_unique<Active>();
  return *active_;
}

const GroupStats& GroupManager::stats() const {
  static const GroupStats kNeverActive;
  return active_ ? active_->stats : kNeverActive;
}

const GroupManager::TypeState& GroupManager::peek(TypeIndex type) const {
  static const TypeState kNeverEngaged;
  const TypeState* states = engaged_states();
  return states ? states[type] : kNeverEngaged;
}

GroupManager::TypeState& GroupManager::engage(TypeIndex type) {
  Active& active = activate();
  if (!active.types) active.types = std::make_unique<TypeState[]>(type_count());
  return active.types[type];
}

void GroupManager::start() {
  assert(!started_);
  started_ = true;
  arm_poll_timer();
}

void GroupManager::arm_poll_timer() {
  poll_timer_.cancel();
  // Stagger poll phases across motes so the deployment's sensing (and the
  // traffic it triggers) does not synchronize.
  const Duration phase = kSensePollPeriod * mote_.rng().next_double();
  poll_timer_ = mote_.every(kSensePollPeriod + phase, kSensePollPeriod,
                            [this] { poll_senses(); });
}

void GroupManager::crash() {
  alive_ = false;
  poll_timer_.cancel();
  TypeState* states = engaged_states();
  if (!states) return;
  for (std::size_t i = 0; i < type_count(); ++i) {
    TypeState& ts = states[i];
    if (ts.role == Role::kLeader && listener_) {
      listener_->on_leader_stop(static_cast<TypeIndex>(i), ts.label);
    }
    ts.heartbeat_timer.cancel();
    ts.receive_timer.cancel();
    ts.report_timer.cancel();
    ts.wait_timer.cancel();
    ts.candidacy_timer.cancel();
    ts.creation_timer.cancel();
    ts.creation_pending = false;
    ts.role = Role::kIdle;
    ts.waiting = false;
    ts.agg.reset();
  }
}

void GroupManager::reboot() {
  assert(started_ && "reboot() requires a started service");
  assert(!alive_ && "reboot() is only valid after crash()");
  TypeState* states = engaged_states();
  for (std::size_t i = 0; states && i < type_count(); ++i) {
    // crash() already cancelled every timer and dropped the role; wipe the
    // remaining volatile protocol memory so the node rejoins like a
    // factory-new mote. The storage itself stays: CPU tasks posted before
    // the crash may still run and look at it.
    TypeState& ts = states[i];
    ts.label = LabelId{};
    ts.weight = 0;
    ts.hb_seq = 0;
    ts.epoch = 0;
    ts.state.clear();
    ts.leader = NodeId{};
    ts.leader_pos = Vec2{};
    ts.leader_weight_seen = 0;
    ts.leader_epoch_seen = 0;
    ts.last_hb_heard = Time{};
    ts.last_state_seen.clear();
    ts.wait_label = LabelId{};
    ts.wait_leader = NodeId{};
    ts.wait_leader_pos = Vec2{};
    ts.wait_weight = 0;
    ts.wait_epoch = 0;
    ts.wait_state.clear();
    ts.relinquish_heard = Time{};
    ts.cand_weight = 0;
    ts.cand_epoch = 0;
    ts.cand_state.clear();
  }
  if (active_) {
    active_->hb_seen.clear();
    active_->report_seen.clear();
  }
  alive_ = true;
  arm_poll_timer();
}

NodeId GroupManager::known_leader(TypeIndex type) const {
  const TypeState& ts = peek(type);
  switch (ts.role) {
    case Role::kLeader:
      return mote_.id();
    case Role::kMember:
      return ts.leader;
    case Role::kIdle:
      return NodeId{};
  }
  return NodeId{};
}

AggregateStateTable* GroupManager::aggregates(TypeIndex type) {
  TypeState* ts = find(type);
  return ts && ts->role == Role::kLeader ? ts->agg.get() : nullptr;
}

void GroupManager::emit(GroupEvent::Kind kind, TypeIndex type, LabelId label,
                        NodeId peer, std::uint64_t weight,
                        std::uint64_t epoch) {
  const std::vector<GroupObserver*>& observers = deployment_.group_observers;
  if (observers.empty()) return;
  const GroupEvent event{kind,  type, mote_.now(), mote_.id(),
                         label, peer, weight,      epoch};
  // The op runs before any world event keyed after it, and only world
  // context registers observers, so the list it reads is the one of the
  // emit (DESIGN.md, "Observing a running deployment").
  auto journal = [&observers, event] {
    for (std::size_t i = 0; i < observers.size(); ++i) {
      observers[i]->on_group_event(event);
    }
  };
  static_assert(sim::Simulator::Callback::fits_inline<decltype(journal)>);
  deployment_.master.post_op(std::move(journal));
}

bool GroupManager::is_sensing(TypeIndex type, Role role) const {
  const GroupTypeProfile& profile = deployment_.types[type];
  if (role == Role::kIdle) return (*profile.activation)(mote_);
  // Active nodes leave on the deactivation condition, which defaults to the
  // inverse of the activation condition (§3.2.1, footnote 1).
  if (profile.deactivation) return !(*profile.deactivation)(mote_);
  return (*profile.activation)(mote_);
}

// ---------------------------------------------------------------------------
// Sense polling and role transitions
// ---------------------------------------------------------------------------

void GroupManager::poll_senses() {
  if (!alive_) return;
  for (std::size_t i = 0; i < type_count(); ++i) {
    const TypeIndex type = static_cast<TypeIndex>(i);
    const bool sensing = is_sensing(type, role(type));
    // A mote with no state for the type has nothing pending and remembers
    // no group: only a detection engages it.
    if (!sensing && !find(type)) continue;
    TypeState& ts = engage(type);
    switch (ts.role) {
      case Role::kIdle:
        if (sensing) {
          if (ts.waiting) {
            // A live group was heard nearby: join it instead of minting a
            // spurious label.
            ts.creation_pending = false;
            ts.creation_timer.cancel();
            become_member(type, ts.wait_label, ts.wait_leader,
                          ts.wait_leader_pos, ts.wait_weight, ts.wait_epoch,
                          ts.wait_state);
          } else if (!ts.creation_pending) {
            // No group known: defer creation briefly; if a heartbeat
            // arrives meanwhile we join instead of forking a new label.
            ts.creation_pending = true;
            const Duration delay =
                kCreationDelayMax * (0.1 + 0.9 * mote_.rng().next_double());
            ts.creation_timer = mote_.after(delay, [this, type] {
              TypeState& st = state_of(type);
              st.creation_pending = false;
              if (!alive_ || st.role != Role::kIdle) return;
              if (!is_sensing(type, st.role)) return;
              if (st.waiting) {
                become_member(type, st.wait_label, st.wait_leader,
                              st.wait_leader_pos, st.wait_weight,
                              st.wait_epoch, st.wait_state);
              } else {
                create_label(type);
              }
            });
          }
        } else if (ts.creation_pending) {
          ts.creation_pending = false;
          ts.creation_timer.cancel();
        }
        break;
      case Role::kMember:
        if (!sensing) leave_group(type);
        break;
      case Role::kLeader:
        if (!sensing) {
          if (config().relinquish_enabled) {
            relinquish(type);
          } else {
            // Worst-case mode: the leader goes silent and the group must
            // recover through receive-timer takeover.
            stop_leading(type, GroupEvent::Kind::kLostLeadership, mote_.id());
          }
        }
        break;
    }
  }
}

void GroupManager::create_label(TypeIndex type) {
  const LabelId label = LabelId::make(mote_.id(), next_label_seq_++);
  active_->stats.labels_created++;
  emit(GroupEvent::Kind::kLabelCreated, type, label, mote_.id(), 0, 1);
  ET_DEBUG(kComponent, "node %llu creates label %llu (type %u)",
           static_cast<unsigned long long>(mote_.id().value()),
           static_cast<unsigned long long>(label.value()), type);
  become_leader(type, label, 0, 1, {}, GroupEvent::Kind::kBecameLeader);
}

void GroupManager::become_leader(TypeIndex type, LabelId label,
                                 std::uint64_t weight, std::uint64_t epoch,
                                 PersistentState inherited,
                                 GroupEvent::Kind cause) {
  TypeState& ts = state_of(type);
  ts.receive_timer.cancel();
  ts.candidacy_timer.cancel();
  ts.wait_timer.cancel();
  ts.report_timer.cancel();
  ts.creation_timer.cancel();
  ts.creation_pending = false;
  ts.waiting = false;

  ts.role = Role::kLeader;
  ts.label = label;
  ts.weight = weight;
  ts.epoch = epoch;
  ts.state = std::move(inherited);
  // Random sequence start so a successor's heartbeats are never confused
  // with the predecessor's in peers' dedup caches.
  ts.hb_seq = static_cast<std::uint32_t>(mote_.rng().next_u64());
  ts.agg = std::make_unique<AggregateStateTable>(deployment_.specs[type],
                                                 deployment_.aggregations);

  if (cause != GroupEvent::Kind::kBecameLeader) {
    emit(cause, type, label, mote_.id(), weight, epoch);
  }
  emit(GroupEvent::Kind::kBecameLeader, type, label, mote_.id(), weight,
       epoch);

  send_heartbeat(type);
  ts.heartbeat_timer =
      mote_.every(config().heartbeat_period, config().heartbeat_period,
                  [this, type] {
                    if (state_of(type).role == Role::kLeader) {
                      send_heartbeat(type);
                    }
                  });
  start_report_timer(type);
  if (listener_) listener_->on_leader_start(type, label, state_of(type).state);
}

void GroupManager::on_directory_fence(TypeIndex type, LabelId label,
                                      std::uint64_t epoch, NodeId incumbent,
                                      Vec2 incumbent_pos) {
  if (!alive_ || type >= type_count()) return;
  if (!config().epoch_fencing_enabled) return;
  TypeState* found = find(type);
  // The notice races against local progress: leadership may have lapsed,
  // moved to another label, or absorbed an epoch at least as new.
  if (!found || found->role != Role::kLeader || found->label != label) return;
  TypeState& ts = *found;
  if (epoch < ts.epoch || incumbent == mote_.id()) return;
  // Equal epochs carry the heartbeat duel's tie-break: the lower-id
  // incarnation is the incumbent, so only a lower-id rival can fence us.
  if (epoch == ts.epoch && incumbent.value() > mote_.id().value()) return;
  // An incumbent within duel range is the heartbeat duel's problem: the
  // next heartbeat exchange yields or absorbs far faster (and with group
  // continuity) than a fence, which dissolves the whole local group.
  // Fences exist for the incarnation the duel can never reach.
  const double duel_range =
      std::min(config().heartbeat_range.value_or(
                   mote_.medium().config().comm_radius),
               mote_.medium().config().comm_radius);
  if (distance(mote_.position(), incumbent_pos) <= duel_range) return;
  active_->stats.fenced++;
  stop_leading(type, GroupEvent::Kind::kFenced, incumbent);
}

void GroupManager::stop_leading(TypeIndex type, GroupEvent::Kind cause,
                                NodeId peer) {
  TypeState& ts = state_of(type);
  assert(ts.role == Role::kLeader);
  ts.heartbeat_timer.cancel();
  ts.report_timer.cancel();
  const LabelId label = ts.label;
  if (listener_) listener_->on_leader_stop(type, label);
  if (cause == GroupEvent::Kind::kLabelSuppressed && listener_) {
    // Suppression kills the label for good (the group merges into the
    // heavier one) — withdraw its directory entry instead of letting it
    // linger until the TTL.
    listener_->on_label_retired(type, label, ts.epoch);
  }
  if (cause == GroupEvent::Kind::kFenced) {
    // The label belongs to a remote incarnation we cannot hear. Dissolve
    // the local group: if members instead took over, the label would be
    // resurrected here at epoch + 1, out-epoch the incumbent at the
    // directory, and the two clusters would fence each other forever.
    // Dissolved members re-sense and mint a fresh label for the local
    // entity.
    auto payload = std::make_shared<RelinquishPayload>(
        type, label, mote_.id(), ts.weight, ts.hb_seq, PersistentState{});
    payload->epoch = ts.epoch;
    payload->dissolve = true;
    mote_.broadcast(radio::MsgType::kRelinquish, std::move(payload),
                    config().heartbeat_range);
  }
  if (cause != GroupEvent::Kind::kLostLeadership) {
    emit(cause, type, label, peer, ts.weight, ts.epoch);
  }
  emit(GroupEvent::Kind::kLostLeadership, type, label, peer, ts.weight,
       ts.epoch);
  ts.role = Role::kIdle;
  ts.agg.reset();
  ts.weight = 0;
  ts.state.clear();
}

void GroupManager::become_member(TypeIndex type, LabelId label, NodeId leader,
                                 Vec2 leader_pos, std::uint64_t leader_weight,
                                 std::uint64_t leader_epoch,
                                 PersistentState state_seen) {
  TypeState& ts = state_of(type);
  ts.wait_timer.cancel();
  ts.creation_timer.cancel();
  ts.creation_pending = false;
  ts.waiting = false;
  ts.role = Role::kMember;
  ts.label = label;
  ts.leader = leader;
  ts.leader_pos = leader_pos;
  ts.leader_weight_seen = leader_weight;
  ts.leader_epoch_seen = leader_epoch;
  ts.last_hb_heard = mote_.now();
  // Seed with the state that came alongside the join trigger (heartbeat or
  // wait-path memory): a member that must take over before hearing another
  // heartbeat restores this, not an empty table (§5.2 state handoff).
  ts.last_state_seen = std::move(state_seen);
  active_->stats.joins++;
  emit(GroupEvent::Kind::kJoined, type, label, leader, leader_weight,
       leader_epoch);
  arm_receive_timer(type);
  start_report_timer(type);
}

void GroupManager::leave_group(TypeIndex type) {
  TypeState& ts = state_of(type);
  assert(ts.role == Role::kMember);
  ts.receive_timer.cancel();
  ts.report_timer.cancel();
  ts.candidacy_timer.cancel();
  emit(GroupEvent::Kind::kLeft, type, ts.label, ts.leader, 0,
       ts.leader_epoch_seen);
  ts.role = Role::kIdle;
}

void GroupManager::relinquish(TypeIndex type) {
  TypeState& ts = state_of(type);
  assert(ts.role == Role::kLeader);
  active_->stats.relinquishes++;
  auto payload = std::make_shared<RelinquishPayload>(
      type, ts.label, mote_.id(), ts.weight, ts.hb_seq, ts.state);
  payload->epoch = ts.epoch;
  mote_.broadcast(radio::MsgType::kRelinquish, std::move(payload),
                  config().heartbeat_range);
  stop_leading(type, GroupEvent::Kind::kRelinquish, mote_.id());
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void GroupManager::arm_receive_timer(TypeIndex type) {
  TypeState& ts = state_of(type);
  ts.receive_timer.cancel();
  ts.receive_timer = mote_.after(receive_timeout(),
                                 [this, type] { on_receive_timeout(type); });
}

void GroupManager::on_receive_timeout(TypeIndex type) {
  TypeState& ts = state_of(type);
  if (!alive_ || ts.role != Role::kMember) return;
  // Guard against the CPU-queue race: a heartbeat may have been processed
  // after this timeout was posted.
  if (mote_.now() - ts.last_hb_heard < receive_timeout()) {
    arm_receive_timer(type);
    return;
  }
  if (is_sensing(type, ts.role)) {
    // Leadership takeover: continue the same label, carrying the last known
    // weight and committed state (§5.2).
    active_->stats.takeovers++;
    ET_DEBUG(kComponent, "node %llu takes over label %llu",
             static_cast<unsigned long long>(mote_.id().value()),
             static_cast<unsigned long long>(ts.label.value()));
    become_leader(type, ts.label, ts.leader_weight_seen,
                  ts.leader_epoch_seen + 1, ts.last_state_seen,
                  GroupEvent::Kind::kTakeover);
  } else {
    leave_group(type);
  }
}

void GroupManager::start_report_timer(TypeIndex type) {
  TypeState& ts = state_of(type);
  ts.report_timer.cancel();
  if (deployment_.specs[type].variables.empty()) return;
  const Duration period = deployment_.types[type].report_period;
  ts.report_timer =
      mote_.every(period, period, [this, type] { send_report(type); });
}

// ---------------------------------------------------------------------------
// Protocol sends
// ---------------------------------------------------------------------------

Vec2 GroupManager::entity_estimate(TypeIndex type) const {
  const TypeState& ts = peek(type);
  if (ts.role == Role::kLeader && ts.agg) {
    const ContextTypeSpec& spec = deployment_.specs[type];
    for (std::size_t i = 0; i < spec.variables.size(); ++i) {
      if (spec.variables[i].sensor != "position") continue;
      if (auto value = ts.agg->read(i, mote_.now());
          value && value->kind == AggregateValue::Kind::kVector) {
        return value->vector;
      }
    }
  }
  // No confirmed aggregate yet: the leader itself senses the entity, so
  // its own location is the best available estimate.
  return mote_.position();
}

void GroupManager::send_heartbeat(TypeIndex type) {
  TypeState& ts = state_of(type);
  assert(ts.role == Role::kLeader);
  active_->stats.heartbeats_sent++;
  auto payload = std::make_shared<HeartbeatPayload>(
      type, ts.label, mote_.id(), mote_.position(), entity_estimate(type),
      ts.weight, ++ts.hb_seq, config().perimeter_hops, ts.state);
  payload->epoch = ts.epoch;
  // Our own heartbeats must not be re-processed when relayed back.
  active_->hb_seen.put(hb_key(ts.label, ts.hb_seq), true);
  mote_.broadcast(radio::MsgType::kHeartbeat, std::move(payload),
                  config().heartbeat_range);
}

void GroupManager::send_report(TypeIndex type) {
  TypeState& ts = state_of(type);
  if (!alive_ || ts.role == Role::kIdle) return;
  const ContextTypeSpec& spec = deployment_.specs[type];

  std::vector<double> scalars;
  scalars.reserve(spec.variables.size());
  for (const AggregateVarSpec& var : spec.variables) {
    scalars.push_back(var.sensor == "position" ? 0.0
                                               : mote_.read_sensor(var.sensor));
  }

  if (ts.role == Role::kLeader) {
    // The leader is itself a group member; its readings enter the window
    // directly (no radio, and no weight increment — weight counts messages
    // received from members).
    ts.agg->add_report(mote_.id(), mote_.position(), mote_.now(), scalars);
    return;
  }
  if (!ts.leader.is_valid()) return;
  active_->stats.reports_sent++;
  auto payload = std::make_shared<ReportPayload>(
      type, ts.label, mote_.id(), mote_.position(), mote_.now(),
      std::move(scalars));
  payload->epoch = ts.leader_epoch_seen;
  // Leaders beyond direct radio range are reached by flooding the report
  // through fellow group members (§3.2.1's multi-hop connectivity).
  const double leader_distance = distance(mote_.position(), ts.leader_pos);
  if (leader_distance <= mote_.medium().config().comm_radius ||
      config().report_relay_hops == 0) {
    mote_.unicast(ts.leader, radio::MsgType::kReport, std::move(payload));
  } else {
    payload->relay_budget = config().report_relay_hops;
    active_->report_seen.put(report_key(*payload), true);
    mote_.broadcast(radio::MsgType::kReport, std::move(payload));
  }
}

// ---------------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------------

void GroupManager::handle_heartbeat(const radio::Frame& frame) {
  if (!alive_) return;
  const auto* hp = static_cast<const HeartbeatPayload*>(frame.payload.get());
  if (hp->type_index >= type_count()) return;
  const TypeIndex type = hp->type_index;

  if (listener_) {
    listener_->on_leader_observed(type, hp->label, hp->leader, hp->leader_pos);
  }

  Active& active = activate();
  const std::uint64_t key = hb_key(hp->label, hp->seq);
  const bool already_seen = active.hb_seen.contains(key);
  active.hb_seen.put(key, true);

  switch (role(type)) {
    case Role::kLeader: {
      TypeState& ts = state_of(type);
      if (hp->leader == mote_.id()) break;  // our own relayed heartbeat
      if (hp->label == ts.label) {
        // Two leaders inside one context label group (§5.2: "the leader
        // immediately yields to this leader"). The winner must be a
        // *stable* function of the pair: deciding by weight livelocks,
        // because duplicate leaders each keep absorbing reports from
        // disjoint member subsets and leapfrog each other indefinitely —
        // and deciding by epoch is destabilizing too: under plain radio
        // loss, takeovers fire on unlucky heartbeat gaps, and
        // higher-epoch-wins would keep handing the group to whichever
        // node just lost packets. Lower node id wins, always; epochs are
        // reconciled by absorption below, and a genuinely stale leader
        // that never hears its successor is fenced via member reports in
        // handle_report.
        const bool other_wins = hp->leader.value() < mote_.id().value();
        if (other_wins) {
          active.stats.yields++;
          stop_leading(type, GroupEvent::Kind::kYield, hp->leader);
          become_member(type, hp->label, hp->leader, hp->leader_pos,
                        hp->weight, hp->epoch, hp->state);
        } else if (config().epoch_fencing_enabled && hp->epoch > ts.epoch) {
          // We win the duel but the rival incarnation is newer: adopt its
          // epoch (Raft-style term absorption) so our heartbeats, reports
          // and directory refreshes are not fenced as stale downstream,
          // and so the rival sees an equal epoch and settles on id.
          active.stats.epochs_absorbed++;
          ts.epoch = hp->epoch;
          if (listener_) listener_->on_epoch_changed(type, ts.epoch);
        }
      } else if (config().weight_suppression_enabled &&
                 hp->weight > ts.weight &&
                 distance(entity_estimate(type), hp->estimate) <=
                     config().suppression_radius) {
        // A heavier label of the same type tracking (by its estimate) the
        // same stimulus: ours is spurious. "They delete their context
        // label and become regular members of the other leader's group."
        // Labels whose estimates are far apart track physically separated
        // entities and must coexist (§3.2.1).
        active.stats.suppressions++;
        stop_leading(type, GroupEvent::Kind::kLabelSuppressed, hp->leader);
        become_member(type, hp->label, hp->leader, hp->leader_pos,
                      hp->weight, hp->epoch, hp->state);
      }
      break;
    }
    case Role::kMember: {
      TypeState& ts = state_of(type);
      if (hp->label == ts.label) {
        if (config().epoch_fencing_enabled &&
            hp->epoch < ts.leader_epoch_seen) {
          // A stale incarnation (pre-partition leader) is still
          // heartbeating; refusing to follow it keeps the member bound to
          // the newest leader until fencing silences the old one.
          active.stats.stale_heartbeats_ignored++;
          break;
        }
        ts.last_hb_heard = mote_.now();
        ts.leader = hp->leader;
        ts.leader_pos = hp->leader_pos;
        ts.leader_weight_seen = hp->weight;
        ts.leader_epoch_seen = hp->epoch;
        ts.last_state_seen = hp->state;
        arm_receive_timer(type);
        if (config().member_relay_heartbeats && !already_seen) {
          active.stats.heartbeats_relayed++;
          auto relay = std::make_shared<HeartbeatPayload>(*hp);
          relay->perimeter_budget = config().perimeter_hops;
          mote_.broadcast(radio::MsgType::kHeartbeat, std::move(relay),
                          config().heartbeat_range);
        }
      }
      break;
    }
    case Role::kIdle: {
      // Remember the nearby group so that if we sense the entity before the
      // wait timer expires we join it instead of minting a new label. Only
      // labels whose entity could plausibly reach us matter — a label
      // tracking something far away must not swallow a fresh local
      // detection.
      if (distance(mote_.position(), hp->estimate) <= config().wait_radius) {
        TypeState& ts = engage(type);
        if (!ts.waiting || hp->weight >= ts.wait_weight) {
          ts.wait_label = hp->label;
          ts.wait_leader = hp->leader;
          ts.wait_leader_pos = hp->leader_pos;
          ts.wait_weight = hp->weight;
          ts.wait_epoch = hp->epoch;
          ts.wait_state = hp->state;
        }
        ts.waiting = true;
        ts.wait_timer.cancel();
        ts.wait_timer = mote_.after(wait_timeout(), [this, type] {
          state_of(type).waiting = false;
        });
      }
      if (hp->perimeter_budget > 0 && !already_seen) {
        active.stats.heartbeats_relayed++;
        auto relay = std::make_shared<HeartbeatPayload>(*hp);
        relay->perimeter_budget = static_cast<std::uint8_t>(
            hp->perimeter_budget - 1);
        mote_.broadcast(radio::MsgType::kHeartbeat, std::move(relay),
                        config().heartbeat_range);
      }
      break;
    }
  }
}

void GroupManager::handle_report(const radio::Frame& frame) {
  if (!alive_) return;
  const auto* rp = static_cast<const ReportPayload*>(frame.payload.get());
  if (rp->type_index >= type_count()) return;
  TypeState* found = find(rp->type_index);
  if (!found || found->label != rp->label || found->role == Role::kIdle) {
    return;
  }
  TypeState& ts = *found;

  // Relayed reports may reach the leader along several member paths;
  // consume/relay each measurement once.
  const std::uint64_t key = report_key(*rp);
  const bool already_seen = active_->report_seen.contains(key);
  active_->report_seen.put(key, true);
  if (already_seen) return;

  if (ts.role == Role::kLeader) {
    if (config().epoch_fencing_enabled && rp->epoch > ts.epoch) {
      // A member is reporting to a newer incarnation of this label: a
      // successor was elected while we were unreachable (partition). We
      // are the stale leader; step down instead of absorbing the foreign
      // group's data. This path fences leaders that never hear the
      // successor's heartbeats directly (out of radio range) but do
      // overhear its members' relayed reports.
      active_->stats.fenced++;
      stop_leading(rp->type_index, GroupEvent::Kind::kFenced, rp->reporter);
      return;
    }
    active_->stats.reports_received++;
    // "This counter increases as sensors report their measurements" — the
    // leader weight used for spurious-label suppression.
    ts.weight++;
    ts.agg->add_report(rp->reporter, rp->reporter_pos, rp->measured_at,
                       rp->scalars);
    return;
  }

  // Member overhearing an in-group flooded report: relay it toward the
  // leader (directly when in range, else re-flood while budget remains).
  if (!frame.is_broadcast() || rp->relay_budget == 0) return;
  auto relay = std::make_shared<ReportPayload>(*rp);
  const double leader_distance = distance(mote_.position(), ts.leader_pos);
  if (ts.leader.is_valid() &&
      leader_distance <= mote_.medium().config().comm_radius) {
    relay->relay_budget = 0;
    mote_.unicast(ts.leader, radio::MsgType::kReport, std::move(relay));
  } else {
    relay->relay_budget = static_cast<std::uint8_t>(rp->relay_budget - 1);
    mote_.broadcast(radio::MsgType::kReport, std::move(relay));
  }
}

void GroupManager::handle_relinquish(const radio::Frame& frame) {
  if (!alive_) return;
  const auto* rp =
      static_cast<const RelinquishPayload*>(frame.payload.get());
  if (rp->type_index >= type_count()) return;
  const TypeIndex type = rp->type_index;
  // A mote never engaged in the type is neither a member nor waiting.
  TypeState* found = find(type);
  if (!found) return;
  TypeState& ts = *found;
  if (rp->dissolve) {
    // A fenced leader is tearing the local group down (see stop_leading):
    // drop membership and any wait-memory of the label so re-detection
    // mints a fresh one instead of resurrecting the fenced label.
    if (ts.waiting && ts.wait_label == rp->label) ts.waiting = false;
    if (ts.role == Role::kMember && ts.label == rp->label) {
      leave_group(type);
    }
    return;
  }
  if (ts.role != Role::kMember || ts.label != rp->label) return;
  if (!is_sensing(type, ts.role)) return;  // we are about to leave anyway

  // Candidate election: wait a small random slice; whoever fires first and
  // heartbeats wins, later candidates hear it and stand down.
  ts.relinquish_heard = mote_.now();
  ts.cand_weight = rp->weight;
  ts.cand_epoch = rp->epoch + 1;
  ts.cand_state = rp->state;
  ts.candidacy_timer.cancel();
  const Duration delay =
      config().heartbeat_period * (0.05 + 0.20 * mote_.rng().next_double());
  ts.candidacy_timer = mote_.after(delay, [this, type] {
    TypeState& st = state_of(type);
    if (!alive_ || st.role != Role::kMember) return;
    if (st.last_hb_heard >= st.relinquish_heard) return;  // successor exists
    if (!is_sensing(type, st.role)) return;
    become_leader(type, st.label, st.cand_weight, st.cand_epoch,
                  st.cand_state, GroupEvent::Kind::kBecameLeader);
  });
}

}  // namespace et::core
