#include "baseline/direct_reporting.hpp"

#include <algorithm>
#include <limits>

namespace et::baseline {

namespace {

/// How often motes evaluate their sense predicate.
constexpr Duration kSensePollPeriod = Duration::millis(250);
/// Spatial clustering distance for central track formation: reports
/// within this distance of a track's last position extend that track.
constexpr double kAssociationRadius = 2.0;
/// Tracks without reports for this long are closed.
constexpr Duration kTrackTimeout = Duration::seconds(3);

}  // namespace

DirectReportingSystem::DirectReportingSystem(sim::Simulator& sim,
                                             env::Environment& env,
                                             const env::Field& field,
                                             std::string target_type,
                                             radio::RadioConfig radio_config,
                                             DirectReportingConfig config)
    : sim_(sim),
      env_(env),
      target_type_(std::move(target_type)),
      config_(config),
      medium_(sim, radio_config),
      network_(sim, medium_, env, field),
      reporting_(field.size(), false),
      report_timers_(field.size()) {
  routers_.reserve(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    routers_.push_back(
        std::make_unique<net::GeoRouting>(network_.mote(NodeId{i}),
                                          routing_config_));
  }
  // The base station consumes kUser envelopes carrying raw reports.
  routers_[config_.base_station.value()]->on_delivery(
      radio::MsgType::kUser, [this](const net::RouteEnvelope& envelope) {
        on_report(*static_cast<const DirectReportPayload*>(
            envelope.inner.get()));
      });

  // Housekeeping at the base station: close tracks that stopped receiving
  // reports even when no new report triggers the association pass.
  sim_.schedule_periodic(
      Duration::seconds(1), Duration::seconds(1), [this] {
        const Time now = sim_.now();
        for (CentralTrack& track : tracks_) {
          if (track.open && now - track.last_update > kTrackTimeout) {
            track.open = false;
          }
        }
      });

  // Sense polling on every mote, phase-staggered.
  for (std::size_t i = 0; i < field.size(); ++i) {
    const NodeId id{i};
    auto& mote = network_.mote(id);
    const Duration phase = kSensePollPeriod * mote.rng().next_double();
    mote.every(kSensePollPeriod + phase, kSensePollPeriod,
               [this, id] { poll(id); });
  }
}

void DirectReportingSystem::poll(NodeId id) {
  auto& mote = network_.mote(id);
  const bool senses = mote.senses(target_type_);
  const std::size_t i = id.value();
  if (senses && !reporting_[i]) {
    reporting_[i] = true;
    report_timers_[i] = mote.every(
        Duration::zero() + config_.report_period * 0.1,
        config_.report_period, [this, id] {
          auto& m = network_.mote(id);
          if (!m.senses(target_type_)) return;
          auto payload = std::make_shared<DirectReportPayload>(
              id, m.position(), m.read_sensor("magnetic"), m.now());
          routers_[id.value()]->send(
              medium_.position_of(config_.base_station),
              radio::MsgType::kUser, std::move(payload),
              config_.base_station);
        });
  } else if (!senses && reporting_[i]) {
    reporting_[i] = false;
    report_timers_[i].cancel();
  }
}

Vec2 DirectReportingSystem::cluster_estimate(
    const DirectReportPayload& report) {
  // Average the fresh reports spatially near the new one (the same
  // computation EnviroTrack's leader does in-network, performed centrally
  // on raw data).
  const Time horizon = sim_.now() - Duration::seconds(1);
  Vec2 sum{};
  int count = 0;
  std::map<std::uint64_t, Vec2> newest;  // newest position per reporter
  for (const auto& r : recent_) {
    if (r.measured_at < horizon) continue;
    if (distance(r.position, report.position) > kAssociationRadius) {
      continue;
    }
    newest[r.reporter.value()] = r.position;
  }
  newest[report.reporter.value()] = report.position;
  for (const auto& [reporter, pos] : newest) {
    sum += pos;
    ++count;
  }
  return sum / static_cast<double>(count);
}

void DirectReportingSystem::on_report(const DirectReportPayload& report) {
  ++reports_received_;
  // Prune stale raw reports.
  const Time horizon = sim_.now() - Duration::seconds(2);
  std::erase_if(recent_, [horizon](const DirectReportPayload& r) {
    return r.measured_at < horizon;
  });
  recent_.push_back(report);
  associate(cluster_estimate(report), sim_.now());
}

void DirectReportingSystem::associate(Vec2 estimate, Time now) {
  // Close timed-out tracks first.
  for (CentralTrack& track : tracks_) {
    if (track.open && now - track.last_update > kTrackTimeout) {
      track.open = false;
    }
  }
  // Extend the nearest open track, else open a new one.
  CentralTrack* best = nullptr;
  double best_d = kAssociationRadius;
  for (CentralTrack& track : tracks_) {
    if (!track.open) continue;
    const double d = distance(track.positions.back().second, estimate);
    if (d <= best_d) {
      best_d = d;
      best = &track;
    }
  }
  if (!best) {
    tracks_.push_back(CentralTrack{next_track_id_++, {}, now, true});
    best = &tracks_.back();
  }
  best->positions.emplace_back(now, estimate);
  best->last_update = now;
}

std::size_t DirectReportingSystem::open_track_count() const {
  std::size_t open = 0;
  for (const CentralTrack& track : tracks_) {
    if (track.open) ++open;
  }
  return open;
}

std::optional<Vec2> DirectReportingSystem::nearest_track_estimate(
    Vec2 truth) const {
  std::optional<Vec2> best;
  double best_d = std::numeric_limits<double>::max();
  for (const CentralTrack& track : tracks_) {
    if (!track.open || track.positions.empty()) continue;
    const Vec2 last = track.positions.back().second;
    const double d = distance(last, truth);
    if (d < best_d) {
      best_d = d;
      best = last;
    }
  }
  return best;
}

}  // namespace et::baseline
