#include "metrics/track_recorder.hpp"

#include <limits>

namespace et::metrics {

TrackRecorder::TrackRecorder(core::EnviroTrackSystem& system,
                             NodeId base_station, TargetId target)
    : system_(system), target_(target) {
  system_.stack(base_station)
      .on_user_message([this](const core::UserMessagePayload& msg, NodeId) {
        // Ambient time: this handler runs in mote context, which under the
        // parallel kernel executes on the base station's tile engine.
        const Time now = sim::Simulator::ambient_now(system_.sim());
        const auto decoded = decode_track_report(msg, now);
        if (!decoded) return;
        if (!fence_.admit(decoded->label, decoded->epoch)) return;
        const Vec2 actual =
            system_.environment().target(target_).position_at(now);
        labels_.emplace(decoded->label, true);
        points_.push_back(TrackPoint{now, decoded->label, decoded->position,
                                     actual,
                                     distance(decoded->position, actual)});
      });
}

double TrackRecorder::mean_error() const {
  if (points_.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const TrackPoint& p : points_) sum += p.error;
  return sum / static_cast<double>(points_.size());
}

double TrackRecorder::max_error() const {
  if (points_.empty()) return std::numeric_limits<double>::quiet_NaN();
  double m = 0.0;
  for (const TrackPoint& p : points_) m = std::max(m, p.error);
  return m;
}

}  // namespace et::metrics
