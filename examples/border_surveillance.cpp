/// Border surveillance: the full EnviroTrack loop on one deployment —
/// duty-cycled motes, a language-declared tracker with a remote-command
/// port, a static command-center object, and MTP tasking.
///
/// A 4 x 20 strip of motes watches a border. Motes duty-cycle their radios
/// (80% asleep while unengaged) to stretch the mission's energy budget.
/// When an intruder crosses, a `watcher` context forms and reports
/// sightings to the command center — a *static object* pinned to mote 0.
/// After three sightings of the same label the center tasks that context
/// over MTP (a `message`-invoked port) to switch into high-rate "pursuit"
/// mode, which the tracking object honours via persistent state.
///
/// Build & run:  ./build/examples/border_surveillance

#include <cstdio>
#include <map>

#include "core/system.hpp"
#include "etl/compiler.hpp"
#include "metrics/energy.hpp"
#include "sim/simulator.hpp"

namespace {

constexpr const char* kProgram = R"etl(
begin context watcher
  activation: intruder_detector();
  position : avg(position) confidence=2, freshness=1s;

  begin object shadow
    # Report every 3s by default, every 1.5s once tasked into pursuit mode.
    # (TIMER phase restarts on leadership handover, so the period should
    # stay below the typical leader tenure.)
    invocation: TIMER(3s)
    sighting() {
      if (not state("pursuit")) { send(center, self.label, position); }
    }
    invocation: TIMER(1500ms)
    pursuit_sighting() {
      if (state("pursuit")) { send(center, self.label, position); }
    }
    invocation: message
    task() {
      setState("pursuit", arg(0));
      log("tasked: pursuit =", arg(0));
    }
  end
end context
)etl";

}  // namespace

int main() {
  using namespace et;

  sim::Simulator sim(/*seed=*/17);
  env::Environment environment(sim.make_rng("env"));
  const env::Field field = env::Field::grid(4, 20);

  // Two intruders at different times and speeds.
  auto add_intruder = [&](Vec2 from, Vec2 to, double speed, double at_s) {
    env::Target intruder;
    intruder.type = "watcher";
    intruder.trajectory =
        std::make_unique<env::LinearTrajectory>(from, to, speed);
    intruder.radius = env::RadiusProfile::constant(1.2);
    intruder.appears = Time::seconds(at_s);
    environment.add_target(std::move(intruder));
  };
  // Distinct rows, > 2 sensing radii apart: the labels must never merge
  // even when the intruders pass each other.
  add_intruder({-1.5, 0.4}, {20.5, 0.4}, 0.15, 0.0);
  add_intruder({20.5, 3.4}, {-1.5, 3.4}, 0.25, 60.0);

  core::SystemConfig config;
  config.middleware.enable_directory = true;
  config.middleware.enable_transport = true;
  config.middleware.enable_duty_cycle = true;
  config.middleware.duty_cycle.awake_fraction = 0.4;
  // Low-power-listening style persistence: per-hop retransmissions span a
  // whole duty cycle, so a sleeping relay is retried once it wakes.
  config.middleware.routing.hop_attempts = 10;
  core::EnviroTrackSystem system(sim, environment, field, config);
  system.senses().add("intruder_detector", core::sense_target("watcher"));

  const NodeId center_node{0};
  etl::CompileOptions options;
  options.destinations["center"] = center_node;
  options.log_sink = [&](const std::string& line) {
    std::printf("%7.1f  [context] %s\n", sim.now().to_seconds(),
                line.c_str());
  };
  auto specs = etl::compile_source(kProgram, system.senses(),
                                   system.aggregations(), options);
  if (!specs.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 specs.error().to_string().c_str());
    return 1;
  }
  const core::TypeIndex watcher_type = system.add_context_type(
      std::move(specs.value()[0]));
  const auto task_port =
      system.specs()[watcher_type].port_of("shadow", "task");
  system.start();

  // The command center: a static object counting sightings per label and
  // tasking persistent intruders into pursuit mode over MTP.
  struct TrackState {
    int sightings = 0;
    bool tasked = false;
  };
  std::map<LabelId, TrackState> tracks;
  auto* center_transport = system.stack(center_node).transport();

  core::StaticObjectSpec center;
  center.name = "command-center";
  center.on_message = [&](core::StaticContext&,
                          const core::UserMessagePayload& msg, NodeId) {
    if (msg.data.size() < 2) return;
    TrackState& track = tracks[msg.src_label];
    track.sightings++;
    std::printf("%7.1f  [center ] label %-12llu sighting #%d at "
                "(%5.2f, %5.2f)%s\n",
                sim.now().to_seconds(),
                static_cast<unsigned long long>(msg.src_label.value()),
                track.sightings, msg.data[0], msg.data[1],
                track.tasked ? " [pursuit]" : "");
    if (track.sightings >= 3 && !track.tasked) {
      track.tasked = true;
      std::printf("         [center ] tasking label %llu into pursuit\n",
                  static_cast<unsigned long long>(msg.src_label.value()));
      center_transport->invoke(watcher_type, msg.src_label,
                               PortId{*task_port}, {1.0});
    }
  };
  system.stack(center_node).add_static_object(std::move(center));

  std::printf("time(s)  event\n-------  -----\n");
  sim.run_for(Duration::seconds(220));

  // Mission report: tracks plus the energy the duty cycling saved.
  const auto energy = metrics::measure_energy(system);
  std::printf("\n%zu track(s):\n", tracks.size());
  int pursuit_rate_confirmed = 0;
  for (const auto& [label, track] : tracks) {
    std::printf("  label %-12llu %3d sightings%s\n",
                static_cast<unsigned long long>(label.value()),
                track.sightings, track.tasked ? "  (pursuit mode)" : "");
    if (track.tasked && track.sightings > 10) ++pursuit_rate_confirmed;
  }
  std::printf(
      "deployment energy: %.1f mJ total, %.2f mJ listen per node mean "
      "(duty-cycled)\n",
      energy.totals.total() * 1e3,
      energy.totals.listen_joules / field.size() * 1e3);
  return tracks.empty() ? 1 : 0;
}
