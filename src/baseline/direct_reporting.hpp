#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "env/environment.hpp"
#include "env/field.hpp"
#include "net/geo_routing.hpp"
#include "node/network.hpp"
#include "radio/medium.hpp"
#include "sim/simulator.hpp"

/// Baseline: direct centralized reporting (no EnviroTrack).
///
/// The conventional architecture EnviroTrack's in-network aggregation is
/// implicitly compared against: every mote that senses a target streams
/// its raw readings straight to a base station, which performs all
/// aggregation and track formation centrally. There are no groups, no
/// leaders, no labels — and therefore no coherent entity identity in the
/// network: the base station must cluster reports spatially to guess which
/// detections belong to which target. The benches compare this baseline's
/// traffic, energy, and track quality against the middleware's.
namespace et::baseline {

struct DirectReportingConfig {
  /// Period at which every sensing mote reports to the base station
  /// (matched to EnviroTrack's member-report period for fairness).
  Duration report_period = Duration::millis(700);
  /// The mote acting as base station.
  NodeId base_station{0};
};

/// One sensing report: the mote's position and signal reading.
class DirectReportPayload final : public radio::Payload {
 public:
  DirectReportPayload(NodeId reporter, Vec2 position, double signal,
                      Time measured_at)
      : reporter(reporter),
        position(position),
        signal(signal),
        measured_at(measured_at) {}

  std::size_t size_bytes() const override { return 22; }

  NodeId reporter;
  Vec2 position;
  double signal;
  Time measured_at;
};

/// A centrally-formed track.
struct CentralTrack {
  std::uint64_t id = 0;
  std::vector<std::pair<Time, Vec2>> positions;  // estimated path
  Time last_update;
  bool open = true;
};

/// The whole baseline system: per-mote reporters + the central tracker.
class DirectReportingSystem {
 public:
  DirectReportingSystem(sim::Simulator& sim, env::Environment& env,
                        const env::Field& field, std::string target_type,
                        radio::RadioConfig radio_config = {},
                        DirectReportingConfig config = {});

  DirectReportingSystem(const DirectReportingSystem&) = delete;
  DirectReportingSystem& operator=(const DirectReportingSystem&) = delete;

  /// Tracks formed so far (open and closed).
  const std::vector<CentralTrack>& tracks() const { return tracks_; }
  std::size_t open_track_count() const;

  /// Reports received at the base station.
  std::uint64_t reports_received() const { return reports_received_; }

  radio::Medium& medium() { return medium_; }
  node::MoteNetwork& network() { return network_; }
  sim::Simulator& sim() { return sim_; }

  /// Estimated position of the track nearest `truth` at its last update,
  /// or nullopt if no track is open.
  std::optional<Vec2> nearest_track_estimate(Vec2 truth) const;

 private:
  void poll(NodeId id);
  void on_report(const DirectReportPayload& report);
  void associate(Vec2 estimate, Time now);

  /// Per-report instantaneous estimate: cluster fresh reports around the
  /// new one and average their positions (what the leader did in-network).
  Vec2 cluster_estimate(const DirectReportPayload& report);

  sim::Simulator& sim_;
  env::Environment& env_;
  std::string target_type_;
  DirectReportingConfig config_;
  radio::Medium medium_;
  node::MoteNetwork network_;
  /// Shared by every router (default routing parameters).
  net::RoutingConfig routing_config_;
  std::vector<std::unique_ptr<net::GeoRouting>> routers_;
  std::vector<bool> reporting_;  // per mote: report timer armed
  std::vector<sim::EventHandle> report_timers_;

  /// Recent raw reports at the base station (for clustering).
  std::vector<DirectReportPayload> recent_;
  std::vector<CentralTrack> tracks_;
  std::uint64_t next_track_id_ = 1;
  std::uint64_t reports_received_ = 0;
};

}  // namespace et::baseline
