#include "metrics/coherence.hpp"

#include <algorithm>
#include <limits>

namespace et::metrics {

namespace {

/// Only *established* labels — leader weight at least this — count toward
/// coherence, mirroring the paper's observation that spurious leaders "are
/// unlikely to gather critical mass and hence will not affect system
/// behavior".
constexpr std::uint64_t kMinClaimWeight = 1;

}  // namespace

CoherenceMonitor::CoherenceMonitor(core::EnviroTrackSystem& system,
                                   Duration sample_period)
    : system_(system) {
  tick_ = system_.sim().schedule_periodic(sample_period, sample_period,
                                          [this] { sample(); });
}

void CoherenceMonitor::sample() {
  const Time now = system_.sim().now();
  const auto& specs = system_.specs();

  struct Claim {
    LabelId label;
    NodeId leader;
    std::uint64_t weight;
  };
  std::unordered_map<TargetId, std::vector<Claim>> claims;

  // Associate every live leader with the nearest physical target of its
  // context type that its mote actually senses.
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const auto type = static_cast<core::TypeIndex>(t);
    const std::vector<TargetId> targets =
        system_.environment().active_targets_of(specs[t].name, now);
    for (const NodeId node : system_.leaders(type)) {
      const core::GroupManager& groups = system_.stack(node).groups();
      const Vec2 pos = system_.network().mote(node).position();
      std::optional<TargetId> best;
      double best_d = std::numeric_limits<double>::max();
      for (TargetId tid : targets) {
        const env::Target& target = system_.environment().target(tid);
        const double d = distance(pos, target.position_at(now));
        if (d <= target.radius_at(now) && d < best_d) {
          best_d = d;
          best = tid;
        }
      }
      if (best && groups.leader_weight(type) >= kMinClaimWeight) {
        claims[*best].push_back(Claim{groups.current_label(type), node,
                                      groups.leader_weight(type)});
      }
    }
  }

  // Score each active target's sample.
  for (TargetId tid : system_.environment().active_targets(now)) {
    PerTarget& pt = targets_[tid];
    pt.stats.total_samples++;
    auto it = claims.find(tid);
    if (it == claims.end()) continue;  // untracked gap (e.g. mid-takeover)
    const std::vector<Claim>& live = it->second;
    pt.stats.tracked_samples++;
    if (!pt.stats.detected()) {
      pt.stats.detection_latency =
          now - system_.environment().target(tid).appears;
    }

    // Count distinct labels alive for this target right now.
    std::vector<LabelId> labels;
    for (const Claim& c : live) {
      if (std::find(labels.begin(), labels.end(), c.label) == labels.end()) {
        labels.push_back(c.label);
      }
      if (pt.labels_seen.emplace(c.label, true).second) {
        pt.stats.distinct_labels++;
      }
    }
    if (labels.size() >= 2) pt.stats.replicated_samples++;

    // Transition scoring against the previously associated label.
    const Claim* continuing = nullptr;
    for (const Claim& c : live) {
      if (c.label == pt.current_label) {
        continuing = &c;
        break;
      }
    }
    if (continuing) {
      if (pt.current_leader.is_valid() &&
          continuing->leader != pt.current_leader) {
        pt.stats.successful_handovers++;
      }
      pt.current_leader = continuing->leader;
    } else {
      // The previous label vanished; a new one owns the target.
      const Claim* heaviest = &live.front();
      for (const Claim& c : live) {
        if (c.weight > heaviest->weight) heaviest = &c;
      }
      if (pt.current_label.is_valid()) pt.stats.failed_handovers++;
      pt.current_label = heaviest->label;
      pt.current_leader = heaviest->leader;
    }
  }
}

const TargetTrackingStats& CoherenceMonitor::stats_for(
    TargetId target) const {
  return targets_[target].stats;
}

TargetTrackingStats CoherenceMonitor::combined() const {
  TargetTrackingStats out;
  for (const auto& [tid, pt] : targets_) {
    out.successful_handovers += pt.stats.successful_handovers;
    out.failed_handovers += pt.stats.failed_handovers;
    out.distinct_labels += pt.stats.distinct_labels;
    out.replicated_samples += pt.stats.replicated_samples;
    out.tracked_samples += pt.stats.tracked_samples;
    out.total_samples += pt.stats.total_samples;
  }
  return out;
}

bool CoherenceMonitor::all_coherent() const {
  for (const auto& [tid, pt] : targets_) {
    if (!pt.stats.coherent()) return false;
  }
  return !targets_.empty();
}

}  // namespace et::metrics
