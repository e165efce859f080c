#include "fault/fault_injector.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace et::fault {

namespace {
constexpr const char* kComponent = "fault";
}

Expected<std::size_t> FaultInjector::schedule(const FaultPlan& plan) {
  const std::vector<std::string> problems =
      plan.validate(system_.node_count());
  if (!problems.empty()) {
    std::string message = "fault plan rejected:";
    for (const std::string& p : problems) {
      message += "\n  - " + p;
    }
    ET_WARN(kComponent, "%s", message.c_str());
    return Expected<std::size_t>::failure("invalid_fault_plan",
                                          std::move(message));
  }
  std::vector<FaultEvent> events = plan.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  const Time now = system_.sim().now();
  for (const FaultEvent& event : events) {
    const Duration delay =
        event.at > now ? event.at - now : Duration::zero();
    if (event.kind == FaultKind::kPartitionStart) {
      // The spec lives in the plan, which need not outlive the schedule
      // call — copy it into the closure.
      PartitionSpec spec = plan.partitions()[event.partition];
      system_.sim().schedule(delay, [this, spec = std::move(spec)] {
        set_partition(spec);
      });
    } else if (event.kind == FaultKind::kPartitionHeal) {
      system_.sim().schedule(delay, [this] { heal_partition(); });
    } else {
      system_.sim().schedule(delay, [this, event] {
        apply(event.node, event.kind);
      });
    }
  }
  return events.size();
}

void FaultInjector::set_partition(const PartitionSpec& spec) {
  std::vector<std::uint32_t> component_of(system_.node_count(), 0);
  for (std::size_t i = 0; i < spec.components.size(); ++i) {
    for (NodeId node : spec.components[i]) {
      component_of[node.value()] = static_cast<std::uint32_t>(i + 1);
    }
  }
  system_.medium().set_partition(std::move(component_of));
  stats_.partitions++;
  record_network_fault(FaultKind::kPartitionStart);
}

void FaultInjector::heal_partition() {
  if (!system_.medium().partitioned()) return;
  system_.medium().clear_partition();
  stats_.partition_heals++;
  record_network_fault(FaultKind::kPartitionHeal);
}

void FaultInjector::record_network_fault(FaultKind kind) {
  FaultRecord record;
  record.at = system_.sim().now();
  record.kind = kind;
  ET_DEBUG(kComponent, "network %s", fault_kind_name(kind));
  records_.push_back(record);
  for (const Listener& listener : listeners_) listener(record);
}

Expected<std::size_t> FaultInjector::harass_leaders(core::TypeIndex type,
                                                    Duration period,
                                                    Duration downtime) {
  if (!period.is_positive() || !downtime.is_positive()) {
    const std::string message =
        "leader harassment needs positive period and downtime (got period=" +
        period.to_string() + " downtime=" + downtime.to_string() +
        "); a zero-period timer would livelock the simulator";
    ET_WARN(kComponent, "%s", message.c_str());
    return Expected<std::size_t>::failure("invalid_harassment", message);
  }
  harass_timers_.push_back(system_.sim().schedule_periodic(
      period, period, [this, type, downtime] {
        const NodeId victim = find_leader(type);
        if (!victim.is_valid()) return;
        apply(victim, FaultKind::kCrash);
        system_.sim().schedule(downtime, [this, victim] {
          apply(victim, FaultKind::kReboot);
        });
      }));
  return harass_timers_.size() - 1;
}

NodeId FaultInjector::find_leader(core::TypeIndex type) const {
  NodeId best;
  std::uint64_t best_weight = 0;
  for (const NodeId id : system_.leaders(type)) {
    const std::uint64_t weight =
        system_.stack(id).groups().leader_weight(type);
    // Heaviest leader first; ascending id order makes ties go to the
    // lowest id, keeping the pick deterministic.
    if (!best.is_valid() || weight > best_weight) {
      best = id;
      best_weight = weight;
    }
  }
  return best;
}

void FaultInjector::crash(NodeId node) { apply(node, FaultKind::kCrash); }
void FaultInjector::reboot(NodeId node) { apply(node, FaultKind::kReboot); }

void FaultInjector::set_radio_blackout(NodeId node, bool blackout) {
  apply(node, blackout ? FaultKind::kRadioBlackoutStart
                       : FaultKind::kRadioBlackoutEnd);
}

void FaultInjector::set_sensor_dropout(NodeId node, bool dropout) {
  apply(node, dropout ? FaultKind::kSensorDropStart
                      : FaultKind::kSensorDropEnd);
}

void FaultInjector::apply(NodeId node, FaultKind kind) {
  core::MiddlewareStack& stack = system_.stack(node);

  // Snapshot the victim's role *before* the fault lands, so listeners can
  // correlate "leader of label L crashed at t" with the takeover that
  // follows.
  FaultRecord record;
  record.at = system_.sim().now();
  record.node = node;
  record.kind = kind;
  core::GroupManager& groups = stack.groups();
  for (std::size_t t = 0; t < groups.type_count(); ++t) {
    const auto type = static_cast<core::TypeIndex>(t);
    if (groups.role(type) != core::Role::kLeader) continue;
    record.was_leader = true;
    record.type_index = type;
    record.label = groups.current_label(type);
    break;
  }

  switch (kind) {
    case FaultKind::kCrash:
      if (stack.mote().is_down()) return;  // already dead: not a new fault
      stats_.crashes++;
      if (record.was_leader) stats_.leader_crashes++;
      // Through the system facade, which attributes the stack's scheduling
      // to the affected mote (canonical keys).
      system_.crash_node(node);
      break;
    case FaultKind::kReboot:
      if (!stack.mote().is_down()) return;
      stats_.reboots++;
      system_.reboot_node(node);
      break;
    case FaultKind::kRadioBlackoutStart:
      stats_.blackouts++;
      system_.medium().set_node_blackout(node, true);
      break;
    case FaultKind::kRadioBlackoutEnd:
      system_.medium().set_node_blackout(node, false);
      break;
    case FaultKind::kSensorDropStart:
      stats_.sensor_dropouts++;
      stack.mote().set_sensor_down(true);
      break;
    case FaultKind::kSensorDropEnd:
      stack.mote().set_sensor_down(false);
      break;
    case FaultKind::kPartitionStart:
    case FaultKind::kPartitionHeal:
      // Network-wide faults route through set_partition/heal_partition.
      return;
  }

  ET_DEBUG(kComponent, "node %llu %s (leader=%d)",
           static_cast<unsigned long long>(node.value()),
           fault_kind_name(kind), record.was_leader ? 1 : 0);
  records_.push_back(record);
  for (const Listener& listener : listeners_) listener(record);
}

}  // namespace et::fault
