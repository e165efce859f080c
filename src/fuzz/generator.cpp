#include "fuzz/generator.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace et::fuzz {

namespace {

/// Time quantized to whole milliseconds: artifacts stay human-readable and
/// the shrinker's halving steps terminate quickly.
Time sample_time(Rng& rng, double lo_s, double hi_s) {
  const double s = rng.uniform(lo_s, hi_s);
  return Time::micros(static_cast<std::int64_t>(s * 1000.0) * 1000);
}

Duration sample_duration(Rng& rng, double lo_s, double hi_s) {
  const double s = rng.uniform(lo_s, hi_s);
  return Duration::micros(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(s * 1000.0)) *
      1000);
}

NodeId sample_victim(Rng& rng, std::size_t node_count) {
  // The base station (mote 0) hosts ingest and the pursuer interface;
  // mostly spare it so trials keep producing serving-tier traffic, but
  // keep it in the victim pool — crashing the sink is legal chaos too.
  if (node_count > 1 && !rng.chance(0.1)) {
    return NodeId{1 + rng.next_below(node_count - 1)};
  }
  return NodeId{rng.next_below(node_count)};
}

/// A random proper subset of the deployment (component 1 of a split);
/// everything unlisted stays in component 0.
fault::PartitionSpec sample_partition(Rng& rng, std::size_t node_count) {
  std::vector<NodeId> side;
  for (std::size_t i = 0; i < node_count; ++i) {
    if (rng.chance(0.4)) side.push_back(NodeId{i});
  }
  if (side.empty()) side.push_back(NodeId{rng.next_below(node_count)});
  if (side.size() == node_count) side.pop_back();
  fault::PartitionSpec spec;
  spec.components.push_back(std::move(side));
  return spec;
}

}  // namespace

ReproArtifact generate_artifact(std::uint64_t seed,
                                const GeneratorConfig& config) {
  Rng root(seed);
  Rng scenario_rng = root.fork("fuzz-scenario");
  Rng fault_rng = root.fork("fuzz-faults");

  ReproArtifact artifact;
  artifact.seed = seed;

  FuzzScenario& s = artifact.scenario;
  s.rows = static_cast<std::size_t>(scenario_rng.uniform_int(
      static_cast<std::int64_t>(config.min_rows),
      static_cast<std::int64_t>(config.max_rows)));
  s.cols = static_cast<std::size_t>(scenario_rng.uniform_int(
      static_cast<std::int64_t>(config.min_cols),
      static_cast<std::int64_t>(config.max_cols)));
  s.speed_hops_per_s = scenario_rng.uniform(0.6, 2.0);
  s.track_y = scenario_rng.uniform(0.3, 0.7);
  const std::int64_t heartbeat_choices[] = {250, 500, 1000};
  s.heartbeat_period = Duration::micros(
      heartbeat_choices[scenario_rng.next_below(3)] * 1000);
  s.duty_cycle_awake_fraction = scenario_rng.chance(config.p_duty_cycle)
                                    ? scenario_rng.uniform(0.6, 1.0)
                                    : 1.0;
  s.ge_loss = scenario_rng.chance(config.p_ge_loss);
  s.reliable_transport = scenario_rng.chance(config.p_reliable_transport);
  // The draw that once sampled the removed window mode. Kept so that a
  // seed still regenerates the scenario it always did (fuzz campaigns and
  // CI's fixed-seed smoke are identified by their seeds).
  scenario_rng.chance(0.5);
  s.harass = scenario_rng.chance(config.p_harass);
  if (s.harass) {
    s.harass_period = sample_duration(scenario_rng, 2.0, 5.0);
    s.harass_downtime = sample_duration(scenario_rng, 0.5, 1.5);
  }

  const std::size_t node_count = s.node_count();
  // Faults land inside the active part of the run: after startup
  // convergence, before the cooldown tail.
  const double horizon_s = s.horizon().to_seconds();
  const double fault_lo = 1.0;
  const double fault_hi = std::max(2.0, horizon_s * 0.8);

  const std::size_t fault_count = static_cast<std::size_t>(
      fault_rng.uniform_int(static_cast<std::int64_t>(config.min_faults),
                            static_cast<std::int64_t>(config.max_faults)));
  for (std::size_t i = 0; i < fault_count; ++i) {
    const Time at = sample_time(fault_rng, fault_lo, fault_hi);
    switch (fault_rng.next_below(5)) {
      case 0:
        artifact.plan.crash_for(at, sample_victim(fault_rng, node_count),
                                sample_duration(fault_rng, 0.5, 3.0));
        break;
      case 1:
        // Crash with no reboot: the mote stays dead for the rest of the
        // run ("must not depend on the availability of any node").
        artifact.plan.crash(at, sample_victim(fault_rng, node_count));
        break;
      case 2:
        artifact.plan.radio_blackout(at,
                                     sample_victim(fault_rng, node_count),
                                     sample_duration(fault_rng, 0.3, 3.0));
        break;
      case 3:
        artifact.plan.sensor_dropout(at,
                                     sample_victim(fault_rng, node_count),
                                     sample_duration(fault_rng, 0.3, 3.0));
        break;
      case 4:
        artifact.plan.burst_partition(
            at, sample_partition(fault_rng, node_count),
            sample_duration(fault_rng, 0.5, 2.0),
            sample_duration(fault_rng, 0.5, 2.0),
            static_cast<int>(1 + fault_rng.next_below(3)));
        break;
    }
  }

  artifact.note = "generated by chaos_fuzz seed " + std::to_string(seed);
  return artifact;
}

}  // namespace et::fuzz
