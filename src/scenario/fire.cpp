#include "scenario/fire.hpp"

#include <algorithm>

namespace et::scenario {

FireScenario::FireScenario(const FireScenarioParams& params)
    : params_(params),
      sim_(params.seed),
      env_(sim_.make_rng("environment")),
      field_(env::Field::grid(params.rows, params.cols)) {
  core::SystemConfig config;
  config.radio = params.radio;
  config.middleware.group = params.group;
  // Fires grow to ~2.5 units, so the identity radii are at least 4.0.
  config.middleware.group.suppression_radius =
      std::max(params.group.suppression_radius, 4.0);
  config.middleware.group.wait_radius =
      std::max(params.group.wait_radius, 4.0);
  config.middleware.enable_directory = true;
  config.middleware.enable_transport = true;
  config.kernel = params.kernel;

  system_ = std::make_unique<core::EnviroTrackSystem>(sim_, env_, field_,
                                                      config);
  system_->senses().add("fire_sensor", core::sense_target("fire"));

  core::ContextTypeSpec spec;
  spec.name = "fire";
  spec.activation = "fire_sensor";
  spec.variables.push_back(core::AggregateVarSpec{
      "intensity", "avg", "temperature", params.freshness,
      params.critical_mass});
  spec.variables.push_back(core::AggregateVarSpec{
      "seat", "centroid", "temperature", params.freshness,
      params.critical_mass});

  core::ObjectSpec monitor;
  monitor.name = "monitor";
  core::MethodSpec alarm;
  alarm.name = "alarm";
  alarm.invocation.kind = core::InvocationSpec::Kind::kCondition;
  const double threshold = params.alarm_threshold;
  alarm.invocation.condition = [threshold](core::TrackingContext& ctx) {
    auto intensity = ctx.read_scalar("intensity");
    return intensity && *intensity > threshold;
  };
  alarm.body = [this](core::TrackingContext& ctx) {
    // Read in mote context, append via the op journal: under the parallel
    // kernel the alarm fires on a tile thread, and journaling keeps the
    // alarm log single-threaded and in canonical event order.
    const FireEvent event{
        ctx.now(), ctx.label(),
        ctx.read_vector("seat").value_or(ctx.node_position()),
        ctx.read_scalar("intensity").value_or(0.0)};
    sim_.post_op([this, event] { alarms_.push_back(event); });
  };
  monitor.methods.push_back(std::move(alarm));
  spec.objects.push_back(std::move(monitor));

  fire_type_ = system_->add_context_type(std::move(spec));
  system_->start();
  system_->add_group_observer(&event_log_);
}

TargetId FireScenario::ignite(Vec2 seat, Time ignites, double initial_radius,
                              double growth_rate, double max_radius,
                              Time extinguished) {
  env::Target fire;
  fire.type = "fire";
  fire.trajectory = std::make_unique<env::StationaryTrajectory>(seat);
  fire.radius = env::RadiusProfile::growing(initial_radius, growth_rate,
                                            max_radius);
  fire.emissions["temperature"] = 400.0;
  fire.appears = ignites;
  fire.disappears = extinguished;
  return env_.add_target(std::move(fire));
}

std::vector<core::DirectoryEntry> FireScenario::where_are_the_fires(
    NodeId asker) {
  std::vector<core::DirectoryEntry> result;
  bool done = false;
  {
    // The query schedules mote-side work (send + timeout) from outside any
    // event; attribute it to the asker so canonical keys are identical on
    // every kernel.
    sim::ExecutingOwnerScope scope(sim_,
                                   static_cast<std::uint32_t>(asker.value()));
    system_->stack(asker).directory()->query(
        fire_type_,
        [&](bool ok, const std::vector<core::DirectoryEntry>& entries) {
          if (ok) result = entries;
          done = true;
        });
  }
  // Drive the simulation until the callback fires (reply or timeout).
  while (!done) system_->run_for(Duration::millis(200));
  return result;
}

}  // namespace et::scenario
