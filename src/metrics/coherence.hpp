#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/system.hpp"

/// Ground-truth coherence monitoring.
///
/// The paper's central correctness property is *context label coherence*: a
/// group of sensors identifying the same entity should maintain one single,
/// persistent context label (§5.2). This monitor samples the deployment
/// periodically, associates every live leader with the physical target its
/// mote senses, and scores each leadership transition as a *successful
/// handover* (same label, new leader — Fig. 4's success case) or a *failed
/// handover* (a fresh label spawned for a target that already had one).
namespace et::metrics {

struct TargetTrackingStats {
  /// Leadership moved to another node under the same label.
  std::uint64_t successful_handovers = 0;
  /// A new label replaced the previous one for this target.
  std::uint64_t failed_handovers = 0;
  /// Distinct labels ever associated with the target.
  std::uint64_t distinct_labels = 0;
  /// Samples where >= 2 concurrent labels tracked the target.
  std::uint64_t replicated_samples = 0;
  /// Samples with at least one associated leader.
  std::uint64_t tracked_samples = 0;
  std::uint64_t total_samples = 0;
  /// Time from the target's appearance to its first established claim
  /// (negative while undetected). The price of duty cycling and of large
  /// creation delays shows up here.
  Duration detection_latency = Duration::micros(-1);

  bool detected() const { return !detection_latency.is_negative(); }

  double handover_success_rate() const {
    const std::uint64_t transitions =
        successful_handovers + failed_handovers;
    return transitions == 0
               ? 1.0
               : static_cast<double>(successful_handovers) /
                     static_cast<double>(transitions);
  }
  double tracked_fraction() const {
    return total_samples == 0 ? 0.0
                              : static_cast<double>(tracked_samples) /
                                    static_cast<double>(total_samples);
  }
  /// The paper's "single group abstraction maintained" criterion used in
  /// the maximum-trackable-speed stress tests (§6.2).
  bool coherent() const { return distinct_labels <= 1; }
};

class CoherenceMonitor {
 public:
  /// Starts sampling `system` every `sample_period`. The monitor must
  /// outlive the run; `system` must already be started. Only established
  /// labels, whose leader carries weight, count toward coherence.
  CoherenceMonitor(core::EnviroTrackSystem& system, Duration sample_period);

  CoherenceMonitor(const CoherenceMonitor&) = delete;
  CoherenceMonitor& operator=(const CoherenceMonitor&) = delete;

  const TargetTrackingStats& stats_for(TargetId target) const;

  /// Aggregate over all targets.
  TargetTrackingStats combined() const;

  /// Convenience: coherence held for every target all run long.
  bool all_coherent() const;

  /// Takes one sample immediately (also called by the periodic schedule).
  void sample();

 private:
  struct PerTarget {
    TargetTrackingStats stats;
    LabelId current_label;
    NodeId current_leader;
    std::unordered_map<LabelId, bool> labels_seen;
  };

  core::EnviroTrackSystem& system_;
  mutable std::unordered_map<TargetId, PerTarget> targets_;
  sim::EventHandle tick_;
};

}  // namespace et::metrics
