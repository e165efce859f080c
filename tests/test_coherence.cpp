#include "metrics/coherence.hpp"

#include <gtest/gtest.h>

#include "test_world.hpp"

/// Tests of the coherence monitor itself and of the system's coherence
/// behaviour under a lossy channel.
namespace et::test {
namespace {

TEST(CoherenceMonitor, CleanRunScoresPerfect) {
  TestWorld::Options options;
  options.cols = 12;
  TestWorld world(options);
  metrics::CoherenceMonitor monitor(world.system(), Duration::millis(100));
  const TargetId target =
      world.add_moving_blob({-0.5, 1.0}, {12.0, 1.0}, 0.3);
  world.run(45);

  const auto& stats = monitor.stats_for(target);
  EXPECT_EQ(stats.distinct_labels, 1u);
  EXPECT_EQ(stats.failed_handovers, 0u);
  EXPECT_GE(stats.successful_handovers, 3u);
  EXPECT_DOUBLE_EQ(stats.handover_success_rate(), 1.0);
  EXPECT_GT(stats.tracked_fraction(), 0.7);
  EXPECT_TRUE(stats.coherent());
  EXPECT_TRUE(monitor.all_coherent());
}

TEST(CoherenceMonitor, UntrackedTargetScoresZero) {
  TestWorld world;
  metrics::CoherenceMonitor monitor(world.system(), Duration::millis(100));
  // A target of a type no context tracks.
  env::Target ghost;
  ghost.type = "ghost";
  ghost.trajectory =
      std::make_unique<env::StationaryTrajectory>(Vec2{3, 1});
  ghost.radius = env::RadiusProfile::constant(1.0);
  const TargetId id = world.env().add_target(std::move(ghost));
  world.run(5);

  const auto& stats = monitor.stats_for(id);
  EXPECT_GT(stats.total_samples, 0u);
  EXPECT_EQ(stats.tracked_samples, 0u);
  EXPECT_DOUBLE_EQ(stats.tracked_fraction(), 0.0);
  // Vacuously coherent (no labels to conflict); trackability checks use
  // tracked_fraction to rule this case out.
  EXPECT_TRUE(stats.coherent());
  EXPECT_EQ(stats.distinct_labels, 0u);
}

/// combined() sums the per-target stats field by field and all_coherent()
/// is their conjunction. How many labels the two blobs end up with is a
/// protocol outcome (a label-creation race can briefly add a third), which
/// the MultiTarget tests cover.
TEST(CoherenceMonitor, CombinedAggregatesTargets) {
  TestWorld::Options options;
  options.cols = 12;
  TestWorld world(options);
  metrics::CoherenceMonitor monitor(world.system(), Duration::millis(100));
  const TargetId left = world.add_blob({2.0, 1.0});
  const TargetId right = world.add_blob({9.0, 1.0});
  world.run(6);

  const auto& a = monitor.stats_for(left);
  const auto& b = monitor.stats_for(right);
  const auto combined = monitor.combined();
  EXPECT_GT(a.tracked_samples, 0u);
  EXPECT_GT(b.tracked_samples, 0u);
  EXPECT_EQ(combined.successful_handovers,
            a.successful_handovers + b.successful_handovers);
  EXPECT_EQ(combined.failed_handovers,
            a.failed_handovers + b.failed_handovers);
  EXPECT_EQ(combined.distinct_labels, a.distinct_labels + b.distinct_labels);
  EXPECT_EQ(combined.replicated_samples,
            a.replicated_samples + b.replicated_samples);
  EXPECT_EQ(combined.tracked_samples, a.tracked_samples + b.tracked_samples);
  EXPECT_EQ(combined.total_samples, a.total_samples + b.total_samples);
  EXPECT_EQ(monitor.all_coherent(), a.coherent() && b.coherent());
}

TEST(CoherenceMonitor, CoherenceHeldUnderModerateLoss) {
  // The paper's central robustness claim: "our system operates correctly
  // in the presence of message loss."
  TestWorld::Options options;
  options.cols = 12;
  options.loss_probability = 0.15;
  options.model_collisions = true;
  TestWorld world(options);
  metrics::CoherenceMonitor monitor(world.system(), Duration::millis(100));
  const TargetId target =
      world.add_moving_blob({-0.5, 1.0}, {12.0, 1.0}, 0.2);
  world.run(70);

  const auto& stats = monitor.stats_for(target);
  EXPECT_TRUE(stats.coherent())
      << "distinct labels: " << stats.distinct_labels;
  EXPECT_GT(stats.tracked_fraction(), 0.6);
}

/// Seed sweep: coherence of the slow-tank scenario must hold across many
/// random channels (property-style regression of the headline result).
class CoherenceSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoherenceSeedSweep, SlowTankAlwaysCoherent) {
  TestWorld::Options options;
  options.cols = 10;
  options.loss_probability = 0.05;
  options.model_collisions = true;
  options.seed = static_cast<std::uint64_t>(GetParam());
  TestWorld world(options);
  metrics::CoherenceMonitor monitor(world.system(), Duration::millis(100));
  const TargetId target =
      world.add_moving_blob({-0.5, 1.0}, {10.0, 1.0}, 0.1);
  world.run(115);
  const auto& stats = monitor.stats_for(target);
  EXPECT_TRUE(stats.coherent())
      << "seed " << GetParam() << ": " << stats.distinct_labels
      << " labels, " << stats.failed_handovers << " failed handovers";
  EXPECT_EQ(stats.failed_handovers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceSeedSweep,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace et::test
