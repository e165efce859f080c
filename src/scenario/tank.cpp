#include "scenario/tank.hpp"

#include <cassert>
#include <string>

namespace et::scenario {

namespace {

/// How often the run's coherence monitor samples leadership.
constexpr Duration kCoherenceSamplePeriod = Duration::millis(100);

/// Builds the Fig. 2 "tracker" context declaration in spec form.
core::ContextTypeSpec make_tracker_spec(const TankScenarioParams& params) {
  core::ContextTypeSpec spec;
  spec.name = "tracker";
  spec.activation = "magnetic_sensor_reading";

  core::AggregateVarSpec location;
  location.name = "location";
  location.aggregation = "avg";
  location.sensor = "position";
  location.freshness = params.aggregate_freshness;
  location.critical_mass = params.critical_mass;
  spec.variables.push_back(location);

  core::ObjectSpec reporter;
  reporter.name = "reporter";
  core::MethodSpec report;
  report.name = "report";
  report.invocation.kind = core::InvocationSpec::Kind::kTimer;
  report.invocation.period = params.report_period;
  if (params.base_station) {
    const NodeId pursuer = *params.base_station;
    report.body = [pursuer](core::TrackingContext& ctx) {
      // MySend(pursuer, self.label, location): only confirmed sitings are
      // reported (the read is null below critical mass).
      if (auto location = ctx.read_vector("location")) {
        ctx.send_to_node(pursuer, std::string(metrics::kTrackTag),
                         {location->x, location->y});
      }
    };
  }
  reporter.methods.push_back(std::move(report));
  spec.objects.push_back(std::move(reporter));
  return spec;
}

}  // namespace

radio::BurstLossConfig twenty_pct_burst_loss() {
  radio::BurstLossConfig ge;
  ge.enabled = true;
  ge.mean_good = Duration::seconds(2);
  ge.mean_bad = Duration::millis(500);
  ge.loss_good = 0.05;
  ge.loss_bad = 0.8;
  return ge;
}

TankScenario::TankScenario(const TankScenarioParams& params)
    : params_(params),
      sim_(params.seed),
      env_(sim_.make_rng("environment")),
      field_(env::Field::grid(params.rows, params.cols)) {
  // Target: enters one sensing radius left of the field, exits one to the
  // right, moving along y = track_y.
  const double margin = params.sensing_radius + 0.5;
  const Vec2 from{field_.bounds().min.x - margin, params.track_y};
  const Vec2 to{field_.bounds().max.x + margin, params.track_y};
  auto trajectory = std::make_unique<env::LinearTrajectory>(
      from, to, params.speed_hops_per_s);
  arrival_ = trajectory->arrival_time();
  end_ = arrival_ + params.cooldown;

  env::Target tank;
  tank.type = "tracker";
  tank.trajectory = std::move(trajectory);
  tank.radius = env::RadiusProfile::constant(params.sensing_radius);
  tank.emissions["magnetic"] = 40.0;  // ~40x an average vehicle (§6.1)
  target_ = env_.add_target(std::move(tank));

  core::SystemConfig config;
  config.radio = params.radio;
  config.cpu = params.cpu;
  config.middleware.group = params.group;
  // Label-identity radii scale with the sensory signature: two estimates
  // within one group diameter plausibly track the same entity.
  config.middleware.group.suppression_radius =
      std::max(params.group.suppression_radius, 2.0 * params.sensing_radius);
  config.middleware.group.wait_radius = std::max(
      params.group.wait_radius, params.sensing_radius + 1.5);
  config.middleware.directory = params.directory;
  config.middleware.enable_directory = params.enable_directory;
  config.middleware.enable_transport = params.enable_transport;
  config.kernel = params.kernel;
  if (params.duty_cycle_awake_fraction < 1.0) {
    config.middleware.enable_duty_cycle = true;
    config.middleware.duty_cycle.awake_fraction =
        params.duty_cycle_awake_fraction;
  }

  system_ = std::make_unique<core::EnviroTrackSystem>(sim_, env_, field_,
                                                      config);
  system_->senses().add("magnetic_sensor_reading",
                        core::sense_target("tracker"));
  tracker_type_ = system_->add_context_type(make_tracker_spec(params));
  system_->start();
  system_->add_group_observer(&event_log_);

  monitor_ = std::make_unique<metrics::CoherenceMonitor>(
      *system_, kCoherenceSamplePeriod);
  if (params.base_station) {
    recorder_ = std::make_unique<metrics::TrackRecorder>(
        *system_, *params.base_station, target_);
  }
  if (params.cross_traffic) {
    start_cross_traffic(*system_, *params.cross_traffic);
  }
}

TankRunResult TankScenario::run() {
  system_->run_until(end_);
  return result();
}

TankRunResult TankScenario::result() const {
  TankRunResult result;
  result.tracking = monitor_->stats_for(target_);
  result.medium = system_->medium().stats();
  result.elapsed = sim_.now() - Time::origin();
  result.channel = metrics::ChannelReport::from(
      result.medium, result.elapsed, system_->config().radio.bitrate_bps);
  if (recorder_) {
    result.track = recorder_->points();
    result.track_labels = recorder_->distinct_labels();
  }
  for (std::size_t i = 0; i < system_->node_count(); ++i) {
    result.groups += system_->stack(NodeId{i}).groups().stats();
    result.cpu += system_->network().mote(NodeId{i}).cpu().stats();
  }
  result.speed_hops_per_s = params_.speed_hops_per_s;
  return result;
}

TankRunResult run_tank_scenario(const TankScenarioParams& params) {
  TankScenario scenario(params);
  return scenario.run();
}

metrics::ChannelReport average_channel_report(TankScenarioParams params,
                                              int runs) {
  assert(runs > 0);
  metrics::ChannelReport sum;
  for (int i = 0; i < runs; ++i) {
    params.seed = params.seed * 7919 + 17;
    const TankRunResult result = run_tank_scenario(params);
    sum.heartbeat_loss_pct += result.channel.heartbeat_loss_pct;
    sum.report_loss_pct += result.channel.report_loss_pct;
    sum.link_utilization_pct += result.channel.link_utilization_pct;
  }
  sum.heartbeat_loss_pct /= runs;
  sum.report_loss_pct /= runs;
  sum.link_utilization_pct /= runs;
  return sum;
}

}  // namespace et::scenario
