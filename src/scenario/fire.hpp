#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "metrics/event_log.hpp"

/// Fire-monitoring scenario (the paper's second motivating application).
///
/// Stationary, growing phenomena of type "fire": activation is the §3.1
/// example condition (a hot thermometer), context state tracks intensity
/// and the heat-weighted seat, alarms fire on an intensity threshold, and
/// the directory answers "where are all the fires?". Used by integration
/// tests and the fire_monitoring example.
namespace et::scenario {

struct FireScenarioParams {
  std::size_t rows = 15;
  std::size_t cols = 15;
  core::GroupConfig group;
  radio::RadioConfig radio;

  /// Aggregate QoS for intensity/seat.
  Duration freshness = Duration::seconds(3);
  std::size_t critical_mass = 3;
  /// Alarm threshold on the intensity aggregate.
  double alarm_threshold = 120.0;

  /// Kernel selection (serial / parallel).
  sim::KernelConfig kernel;

  std::uint64_t seed = 1;
};

struct FireEvent {
  Time time;
  LabelId label;
  Vec2 seat;
  double intensity;
};

class FireScenario {
 public:
  explicit FireScenario(const FireScenarioParams& params);

  /// Ignites a fire at `seat` growing from `initial_radius` by
  /// `growth_rate` (units/s) up to `max_radius`, burning during
  /// [ignites, extinguished).
  TargetId ignite(Vec2 seat, Time ignites, double initial_radius = 1.0,
                  double growth_rate = 0.01, double max_radius = 2.5,
                  Time extinguished = Time::max());

  void extinguish(TargetId fire) {
    env_.remove_target_at(fire, sim_.now());
  }

  void run(double seconds) { system_->run_for(Duration::seconds(seconds)); }

  /// Directory sweep from `asker`: blocks the simulation until the reply
  /// (or timeout) and returns the entries.
  std::vector<core::DirectoryEntry> where_are_the_fires(NodeId asker);

  const std::vector<FireEvent>& alarms() const { return alarms_; }
  sim::Simulator& sim() { return sim_; }
  core::EnviroTrackSystem& system() { return *system_; }
  env::Environment& environment() { return env_; }
  metrics::EventLog& events() { return event_log_; }
  core::TypeIndex fire_type() const { return fire_type_; }

 private:
  FireScenarioParams params_;
  sim::Simulator sim_;
  env::Environment env_;
  env::Field field_;
  std::unique_ptr<core::EnviroTrackSystem> system_;
  metrics::EventLog event_log_;
  std::vector<FireEvent> alarms_;
  core::TypeIndex fire_type_ = 0;
};

}  // namespace et::scenario
