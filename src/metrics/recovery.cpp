#include "metrics/recovery.hpp"

#include <algorithm>

namespace et::metrics {

RecoveryMonitor::RecoveryMonitor(core::EnviroTrackSystem& system,
                                 fault::FaultInjector& injector,
                                 Duration sample_period)
    : system_(system), sample_period_(sample_period) {
  system_.add_group_observer(this);
  injector.add_listener(
      [this](const fault::FaultRecord& record) { on_fault(record); });
  tick_ = system_.sim().schedule_periodic(sample_period, sample_period,
                                          [this] { sample(); });
}

void RecoveryMonitor::on_fault(const fault::FaultRecord& record) {
  if (record.kind != fault::FaultKind::kCrash || !record.was_leader) return;
  stats_.leader_faults++;
  open_.push_back(OpenGap{record.at, record.type_index, record.label});
}

void RecoveryMonitor::on_group_event(const core::GroupEvent& event) {
  if (event.kind != core::GroupEvent::Kind::kBecameLeader) return;
  // Close the gap this takeover actually answers. Prefer an exact label
  // match: with several simultaneously crashed leaders of the same context
  // type (the multi-target regime), a takeover that kept target B's label
  // must not close target A's gap — that cross-pairing corrupts both the
  // takeover-time and the label-continuity statistics. Only when no open
  // gap carries the event's label (the takeover minted or adopted a new
  // label) fall back to the oldest gap of the type: whoever leads the type
  // again has re-assumed a crashed leader's tracking responsibility.
  auto it = std::find_if(open_.begin(), open_.end(),
                         [&](const OpenGap& gap) {
                           return gap.type == event.type_index &&
                                  gap.label == event.label;
                         });
  if (it == open_.end()) {
    it = std::find_if(open_.begin(), open_.end(),
                      [&](const OpenGap& gap) {
                        return gap.type == event.type_index;
                      });
  }
  if (it == open_.end()) return;
  const Duration takeover = event.time - it->opened;
  stats_.recoveries++;
  stats_.total_takeover += takeover;
  stats_.max_takeover = std::max(stats_.max_takeover, takeover);
  if (event.label == it->label) {
    stats_.label_preserved++;
  } else {
    stats_.label_replaced++;
  }
  open_.erase(it);
}

void RecoveryMonitor::sample() {
  const Time now = system_.sim().now();
  const auto& specs = system_.specs();

  // A target counts as tracked when some alive leader of its context type
  // is close enough to sense it — the coherence monitor's association rule
  // minus the weight gate (a fresh takeover with zero absorbed reports
  // still counts as coverage).
  bool any_exposed = false;
  bool all_covered = true;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const auto type = static_cast<core::TypeIndex>(t);
    const std::vector<TargetId> targets =
        system_.environment().active_targets_of(specs[t].name, now);
    if (targets.empty()) continue;
    any_exposed = true;
    const std::vector<NodeId> leaders = system_.leaders(type);
    for (TargetId tid : targets) {
      const env::Target& target = system_.environment().target(tid);
      const Vec2 target_pos = target.position_at(now);
      const double radius = target.radius_at(now);
      const bool covered =
          std::any_of(leaders.begin(), leaders.end(), [&](NodeId node) {
            const Vec2 pos = system_.network().mote(node).position();
            return distance(pos, target_pos) <= radius;
          });
      if (!covered) all_covered = false;
    }
  }
  if (!any_exposed) return;
  stats_.exposed_samples++;
  if (all_covered) stats_.tracked_samples++;
}

}  // namespace et::metrics
