#include <gtest/gtest.h>

#include "metrics/coherence.hpp"
#include "test_world.hpp"

/// Threshold sensing with noisy hardware: activation conditions built on
/// raw scalar readings (temperature > T, magnetic > M) flap when sensors
/// are noisy. The middleware's spurious-label machinery — creation delay,
/// weights, wait memory — must keep false detections from becoming
/// established phantom tracks.
namespace et::test {
namespace {

/// A world whose context activates on a noisy magnetometer threshold
/// rather than the ground-truth disc.
struct NoisyWorld {
  explicit NoisyWorld(double noise_stddev, std::uint64_t seed) {
    sim.emplace(seed);
    env.emplace(sim->make_rng("env"));
    env::ChannelModel magnetic;
    magnetic.falloff = 3.0;
    magnetic.min_distance = 0.1;
    magnetic.noise_stddev = noise_stddev;
    env->set_channel("magnetic", magnetic);
    field.emplace(env::Field::grid(3, 10));

    core::SystemConfig config;
    config.radio.loss_probability = 0.0;
    config.radio.model_collisions = false;
    system.emplace(*sim, *env, *field, config);
    // Activation: reading above 4 (a target at distance <= ~1.35 of a
    // 10-unit emitter). Noise sigma up to 1.5 flaps this condition on
    // motes near the boundary and occasionally on empty motes.
    system->senses().add("hot", core::sense_threshold("magnetic", 4.0));
    core::ContextTypeSpec spec;
    spec.name = "blob";
    spec.activation = "hot";
    spec.variables.push_back(core::AggregateVarSpec{
        "where", "avg", "position", Duration::seconds(1), 2});
    system->add_context_type(std::move(spec));
    system->start();
  }

  TargetId add_emitter(Vec2 at) {
    env::Target blob;
    blob.type = "blob";
    blob.trajectory = std::make_unique<env::StationaryTrajectory>(at);
    blob.radius = env::RadiusProfile::constant(1.35);
    blob.emissions["magnetic"] = 10.0;
    return env->add_target(std::move(blob));
  }

  std::size_t established_leaders() {
    std::size_t n = 0;
    for (const NodeId id : system->leaders(0)) {
      if (system->stack(id).groups().leader_weight(0) >= 3) ++n;
    }
    return n;
  }

  std::optional<sim::Simulator> sim;
  std::optional<env::Environment> env;
  std::optional<env::Field> field;
  std::optional<core::EnviroTrackSystem> system;
};

TEST(NoisySensing, QuietChannelNoPhantoms) {
  NoisyWorld world(0.0, 1);
  world.sim->run_for(Duration::seconds(20));
  EXPECT_EQ(world.established_leaders(), 0u);
}

TEST(NoisySensing, NoiseAloneRarelyEstablishesPhantomTracks) {
  // Noise sigma 1.5 against threshold 4: single-mote false positives
  // happen (P ~ 0.4% per poll) but establishing a label takes a *group*
  // of correlated detections reporting for seconds — the critical-mass
  // and weight machinery suppresses isolated flickers.
  int phantom_samples = 0;
  int samples = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    NoisyWorld world(1.5, seed);
    for (int s = 0; s < 40; ++s) {
      world.sim->run_for(Duration::seconds(0.5));
      ++samples;
      if (world.established_leaders() > 0) ++phantom_samples;
    }
  }
  EXPECT_LT(phantom_samples, samples / 10)
      << "phantom tracks from noise must be rare: " << phantom_samples
      << "/" << samples;
}

TEST(NoisySensing, RealTargetDetectedThroughNoise) {
  NoisyWorld world(1.0, 7);
  const TargetId target = world.add_emitter({4.5, 1.0});
  metrics::CoherenceMonitor monitor(*world.system, Duration::millis(100));
  world.sim->run_for(Duration::seconds(20));

  const auto& stats = monitor.stats_for(target);
  EXPECT_TRUE(stats.detected());
  EXPECT_LT(stats.detection_latency.to_seconds(), 5.0);
  EXPECT_GT(stats.tracked_fraction(), 0.5);
  // Boundary flapping may fork short-lived labels; established identity
  // must stay essentially unique.
  EXPECT_LE(stats.distinct_labels, 2u);
}

TEST(NoisySensing, DetectionLatencyIsMeasured) {
  NoisyWorld world(0.0, 9);
  metrics::CoherenceMonitor monitor(*world.system, Duration::millis(100));
  world.sim->run_for(Duration::seconds(5));
  // Appears mid-run: latency measured from appearance, not run start.
  env::Target late;
  late.type = "blob";
  late.trajectory =
      std::make_unique<env::StationaryTrajectory>(Vec2{4.5, 1.0});
  late.radius = env::RadiusProfile::constant(1.35);
  late.emissions["magnetic"] = 10.0;
  late.appears = world.sim->now();
  const TargetId target = world.env->add_target(std::move(late));
  world.sim->run_for(Duration::seconds(10));

  const auto& stats = monitor.stats_for(target);
  ASSERT_TRUE(stats.detected());
  EXPECT_GT(stats.detection_latency.to_seconds(), 0.0);
  EXPECT_LT(stats.detection_latency.to_seconds(), 4.0);
}

}  // namespace
}  // namespace et::test
