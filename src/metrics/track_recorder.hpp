#pragma once

#include <unordered_map>
#include <vector>

#include "core/app_messages.hpp"
#include "core/system.hpp"
#include "metrics/track_decode.hpp"

/// Base-station track recording (Fig. 3).
///
/// Plays the role of the paper's pursuer laptop: installs itself as a
/// kUser message consumer on one mote, interprets "track" reports (x, y
/// from the `location` aggregate; shared decoder in track_decode.hpp) and
/// logs them against the ground-truth target position at the moment each
/// report arrives.
namespace et::metrics {

struct TrackPoint {
  Time time;
  LabelId label;
  Vec2 reported;
  Vec2 actual;  // ground-truth position of the associated target
  double error;
};

class TrackRecorder {
 public:
  /// Attaches to `base_station`'s middleware stack. Reports are matched to
  /// ground truth against `target` of the environment.
  TrackRecorder(core::EnviroTrackSystem& system, NodeId base_station,
                TargetId target);

  const std::vector<TrackPoint>& points() const { return points_; }
  std::size_t report_count() const { return points_.size(); }

  /// Labels seen across all received reports (coherence check from the
  /// application's perspective: should be 1 for a single target).
  std::size_t distinct_labels() const { return labels_.size(); }

  /// Mean/max distance between reported and ground-truth positions. NaN
  /// when no report ever arrived: a run where tracking failed completely
  /// must not score as a perfect (zero-error) one.
  double mean_error() const;
  double max_error() const;

  /// Reports discarded because they carried a leadership epoch lower than
  /// the highest already seen for their label (stale pre-partition leader).
  std::uint64_t stale_discarded() const { return fence_.stale_discarded(); }

 private:
  core::EnviroTrackSystem& system_;
  TargetId target_;
  std::vector<TrackPoint> points_;
  std::unordered_map<LabelId, bool> labels_;
  EpochFence fence_;
};

}  // namespace et::metrics
