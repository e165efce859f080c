#pragma once

#include <memory>
#include <optional>

#include "core/system.hpp"
#include "metrics/channel_report.hpp"
#include "metrics/coherence.hpp"
#include "metrics/event_log.hpp"
#include "metrics/track_recorder.hpp"
#include "scenario/cross_traffic.hpp"
#include "scenario/units.hpp"

/// The paper's tank-tracking case study (§6.1) and stress-test rig (§6.2).
///
/// A rectangular mote grid, a single target crossing it on a horizontal
/// line, a "tracker" context type with the Fig. 2 declaration (average
/// position, confidence 2, freshness 1 s; a reporter object sending the
/// location to a base-station pursuer), and full instrumentation:
/// coherence/handover accounting, the reported-vs-real track, and channel
/// statistics.
namespace et::scenario {

/// Gilbert–Elliott channel at ~20% effective loss: pi_bad = 0.5/(2+0.5),
/// effective = 0.8*0.2 + 0.05*0.8. The chaos sweep's transport runs and
/// the fuzzer's burst-loss scenarios use it.
radio::BurstLossConfig twenty_pct_burst_loss();

struct TankScenarioParams {
  // Deployment.
  std::size_t rows = 3;
  std::size_t cols = 12;
  double sensing_radius = kTankSensingRadius;

  // Target motion: crosses from left of the field to right of it along
  // y = track_y, at `speed_hops_per_s`.
  double speed_hops_per_s = kmh_to_hops_per_s(kTankFastKmh);
  double track_y = 0.5;

  // Middleware knobs under study.
  core::GroupConfig group;
  radio::RadioConfig radio;
  node::CpuConfig cpu;
  core::DirectoryConfig directory;
  bool enable_directory = false;  // pure §6 runs do not use the directory
  bool enable_transport = false;

  // Fig. 2 context declaration.
  Duration aggregate_freshness = Duration::seconds(1);
  std::size_t critical_mass = 2;
  Duration report_period = Duration::seconds(5);

  /// Base station (pursuer interface) node; defaults to mote 0 (a corner).
  std::optional<NodeId> base_station = NodeId{0};

  /// Optional §6.2 background noise.
  std::optional<CrossTrafficConfig> cross_traffic;

  /// Radio duty cycling (energy extension): awake fraction for unengaged
  /// motes; 1.0 keeps all radios always on (the paper's prototype).
  double duty_cycle_awake_fraction = 1.0;

  /// Extra simulated time after the target leaves the field.
  Duration cooldown = Duration::seconds(3);

  /// Kernel selection: the serial kernel (default) or the parallel tiled
  /// kernel; both run the one canonical event order.
  sim::KernelConfig kernel;

  std::uint64_t seed = 1;
};

struct TankRunResult {
  metrics::TargetTrackingStats tracking;
  radio::MediumStats medium;
  metrics::ChannelReport channel;
  std::vector<metrics::TrackPoint> track;
  std::size_t track_labels = 0;  // distinct labels seen by the pursuer
  core::GroupStats groups;       // summed over all motes
  node::Cpu::Stats cpu;          // summed over all motes
  Duration elapsed;
  double speed_hops_per_s = 0.0;

  /// §6.2 trackability criterion: context label coherence was ensured —
  /// one single label tracked the target across the whole traverse — and
  /// the target was actually tracked a meaningful fraction of the time.
  bool trackable(double min_tracked_fraction = 0.5) const {
    return tracking.distinct_labels == 1 &&
           tracking.tracked_fraction() >= min_tracked_fraction;
  }
};

/// A fully assembled tank run. Kept as an object so tests and examples can
/// poke at the system mid-run; benches mostly call run_tank_scenario().
class TankScenario {
 public:
  explicit TankScenario(const TankScenarioParams& params);

  /// Runs to completion (target crosses + cooldown) and returns the result.
  TankRunResult run();

  /// Advances the simulation by `span` without finishing.
  void run_for(Duration span) { system_->run_for(span); }

  sim::Simulator& sim() { return sim_; }
  core::EnviroTrackSystem& system() { return *system_; }
  env::Environment& environment() { return env_; }
  metrics::CoherenceMonitor& monitor() { return *monitor_; }
  metrics::EventLog& events() { return event_log_; }
  TargetId target() const { return target_; }
  core::TypeIndex tracker_type() const { return tracker_type_; }
  Time target_arrival() const { return arrival_; }
  const TankScenarioParams& params() const { return params_; }

  /// Collects the result so far (usable before or after run()).
  TankRunResult result() const;

 private:
  TankScenarioParams params_;
  sim::Simulator sim_;
  env::Environment env_;
  env::Field field_;
  std::unique_ptr<core::EnviroTrackSystem> system_;
  std::unique_ptr<metrics::CoherenceMonitor> monitor_;
  std::unique_ptr<metrics::TrackRecorder> recorder_;
  metrics::EventLog event_log_;
  TargetId target_;
  core::TypeIndex tracker_type_ = 0;
  Time arrival_;
  Time end_;
};

TankRunResult run_tank_scenario(const TankScenarioParams& params);

/// Averages channel reports over `runs` independent seeds (Table 1 is
/// "averaged over three independent runs").
metrics::ChannelReport average_channel_report(TankScenarioParams params,
                                              int runs);

}  // namespace et::scenario
