#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "fault/fault_injector.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/trial.hpp"
#include "scenario/tank.hpp"

/// The chaos fuzzer's building blocks: artifact JSON round-trips, seeded
/// generator determinism, the stacked-oracle trial runner, and the
/// delta-debugging shrinker (driven by a synthetic predicate so its search
/// behaviour is testable without real failures).
namespace et::fuzz {
namespace {

/// Small, fast artifact for real trial runs: 12 motes, quick traverse.
ReproArtifact tiny_artifact() {
  ReproArtifact artifact;
  artifact.seed = 7;
  artifact.scenario.rows = 2;
  artifact.scenario.cols = 6;
  artifact.scenario.speed_hops_per_s = 2.0;
  artifact.scenario.cooldown = Duration::seconds(2);
  artifact.plan.crash_for(Time::seconds(2), NodeId{4},
                          Duration::seconds(1));
  artifact.plan.radio_blackout(Time::seconds(3), NodeId{7},
                               Duration::millis(800));
  return artifact;
}

TEST(ChaosArtifact, JsonRoundTripIsByteStable) {
  ReproArtifact artifact = generate_artifact(42);
  artifact.expect_failure = "invariant:dual-leader";
  const std::string text = artifact.to_json_string();
  const Expected<ReproArtifact> round =
      ReproArtifact::from_json_string(text);
  if (!round.ok()) FAIL() << round.error().message;
  EXPECT_EQ(round.value().to_json_string(), text);
  EXPECT_EQ(round.value().seed, artifact.seed);
  EXPECT_EQ(round.value().expect_failure, artifact.expect_failure);
  EXPECT_EQ(round.value().plan.events().size(),
            artifact.plan.events().size());
}

TEST(ChaosArtifact, RejectsMalformedDocuments) {
  EXPECT_FALSE(ReproArtifact::from_json_string("not json").ok());
  EXPECT_FALSE(ReproArtifact::from_json_string("{}").ok());
  EXPECT_FALSE(
      ReproArtifact::from_json_string("{\"format\": \"wrong\"}").ok());
  // A plan referencing motes beyond the deployment is rejected at parse.
  ReproArtifact artifact = tiny_artifact();
  artifact.plan.crash(Time::seconds(1), NodeId{400});
  EXPECT_FALSE(
      ReproArtifact::from_json_string(artifact.to_json_string()).ok());
  // A repro recorded in the removed narrow-window mode is refused, not
  // replayed under different semantics; the wide value still parses.
  util::Json doc = tiny_artifact().to_json();
  util::Json scenario = doc["scenario"];
  scenario.set("wide_windows", false);
  doc.set("scenario", scenario);
  const Expected<ReproArtifact> narrow = ReproArtifact::from_json(doc);
  ASSERT_FALSE(narrow.ok());
  EXPECT_NE(narrow.error().message.find("narrow-window mode was removed"),
            std::string::npos)
      << narrow.error().message;
  scenario.set("wide_windows", true);
  doc.set("scenario", scenario);
  EXPECT_TRUE(ReproArtifact::from_json(doc).ok());
}

TEST(ChaosGenerator, DeterministicPerSeed) {
  const ReproArtifact a = generate_artifact(123);
  const ReproArtifact b = generate_artifact(123);
  const ReproArtifact c = generate_artifact(124);
  EXPECT_EQ(a.to_json_string(), b.to_json_string());
  EXPECT_NE(a.to_json_string(), c.to_json_string());
}

TEST(ChaosGenerator, ArtifactsAreValidAndDiverse) {
  bool saw_partition = false;
  bool saw_per_node = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ReproArtifact artifact = generate_artifact(seed);
    EXPECT_TRUE(artifact.plan.construction_problems().empty())
        << "seed " << seed;
    EXPECT_TRUE(
        artifact.plan.validate(artifact.scenario.node_count()).empty())
        << "seed " << seed;
    EXPECT_FALSE(artifact.plan.events().empty()) << "seed " << seed;
    for (const fault::FaultEvent& event : artifact.plan.events()) {
      saw_partition |= event.kind == fault::FaultKind::kPartitionStart;
      saw_per_node |= fault_kind_is_per_node(event.kind);
    }
  }
  EXPECT_TRUE(saw_partition) << "40 seeds must cover partitions";
  EXPECT_TRUE(saw_per_node);
}

TEST(ChaosTrial, CleanArtifactPassesAllOracles) {
  const TrialResult result = run_trial(tiny_artifact());
  EXPECT_TRUE(result.verdict.ok()) << result.verdict.summary();
  EXPECT_EQ(result.faults_scheduled, 4u);
  // All four oracle families ran on the serial run, and the differential
  // compared the kernels.
  const std::vector<std::string>& ran = result.verdict.oracles_run();
  const auto ran_oracle = [&](const std::string& name) {
    return std::find(ran.begin(), ran.end(), name) != ran.end();
  };
  EXPECT_TRUE(ran_oracle("serial/invariants"));
  EXPECT_TRUE(ran_oracle("serial/serve-validate"));
  EXPECT_TRUE(ran_oracle("serial/watchdog"));
  EXPECT_TRUE(ran_oracle("parallel/invariants"));
  EXPECT_TRUE(ran_oracle("differential"));
  EXPECT_FALSE(result.digest.empty());
}

TEST(ChaosTrial, DigestIsDeterministic) {
  const TrialResult a = run_trial(tiny_artifact());
  const TrialResult b = run_trial(tiny_artifact());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.verdict.to_json().dump(), b.verdict.to_json().dump());
}

TEST(ChaosTrial, ExpectationMatching) {
  ReproArtifact artifact = tiny_artifact();
  metrics::ChaosVerdict clean;
  clean.pass("serial/invariants");
  metrics::ChaosVerdict failed;
  failed.fail("serial/invariant:dual-leader", "nodes 1 2 co-led");

  EXPECT_TRUE(matches_expectation(artifact, clean));
  EXPECT_FALSE(matches_expectation(artifact, failed));

  artifact.expect_failure = "invariant:dual-leader";
  EXPECT_FALSE(matches_expectation(artifact, clean));
  EXPECT_TRUE(matches_expectation(artifact, failed))
      << "kernel prefix must be stripped before matching";

  artifact.expect_failure = "watchdog";
  EXPECT_FALSE(matches_expectation(artifact, failed));
}

TEST(ChaosTrial, TankResultSumsEveryGroupCounter) {
  // The digest's group rows come from TankScenario::result(); a counter it
  // leaves out reads 0 on both kernels and the differential compares
  // nothing. Seed 13's faults make the epoch counters move.
  const ReproArtifact artifact = generate_artifact(13);
  scenario::TankScenario scenario(
      artifact.scenario.to_params(artifact.seed, sim::KernelConfig{}));
  fault::FaultInjector injector(scenario.system());
  ASSERT_TRUE(injector.schedule(artifact.plan).ok());
  if (artifact.scenario.harass) {
    ASSERT_TRUE(injector
                    .harass_leaders(scenario.tracker_type(),
                                    artifact.scenario.harass_period,
                                    artifact.scenario.harass_downtime)
                    .ok());
  }
  const scenario::TankRunResult result = scenario.run();

  using Counter = std::uint64_t core::GroupStats::*;
  const auto per_stack_sum = [&](Counter counter) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < scenario.system().node_count(); ++i) {
      sum += scenario.system().stack(NodeId{i}).groups().stats().*counter;
    }
    return sum;
  };
  const std::pair<const char*, Counter> counters[] = {
      {"heartbeats_sent", &core::GroupStats::heartbeats_sent},
      {"heartbeats_relayed", &core::GroupStats::heartbeats_relayed},
      {"reports_sent", &core::GroupStats::reports_sent},
      {"reports_received", &core::GroupStats::reports_received},
      {"labels_created", &core::GroupStats::labels_created},
      {"takeovers", &core::GroupStats::takeovers},
      {"relinquishes", &core::GroupStats::relinquishes},
      {"yields", &core::GroupStats::yields},
      {"suppressions", &core::GroupStats::suppressions},
      {"joins", &core::GroupStats::joins},
      {"fenced", &core::GroupStats::fenced},
      {"stale_heartbeats_ignored",
       &core::GroupStats::stale_heartbeats_ignored},
      {"epochs_absorbed", &core::GroupStats::epochs_absorbed},
  };
  for (const auto& [name, counter] : counters) {
    EXPECT_EQ(result.groups.*counter, per_stack_sum(counter)) << name;
  }
  EXPECT_GT(per_stack_sum(&core::GroupStats::stale_heartbeats_ignored), 0u);
  EXPECT_GT(per_stack_sum(&core::GroupStats::epochs_absorbed), 0u);
}

// --- Shrinker, driven by a synthetic predicate -------------------------

/// "Fails" iff the plan still crashes node 5 and the grid keeps >= 8
/// columns — everything else is noise the shrinker should strip.
bool synthetic_failure(const ReproArtifact& artifact) {
  if (artifact.scenario.cols < 8) return false;
  for (const fault::FaultEvent& event : artifact.plan.events()) {
    if (event.kind == fault::FaultKind::kCrash &&
        event.node.value() == 5) {
      return true;
    }
  }
  return false;
}

ReproArtifact noisy_failing_artifact() {
  ReproArtifact artifact;
  artifact.seed = 9;
  artifact.scenario.rows = 4;
  artifact.scenario.cols = 12;
  artifact.scenario.harass = true;
  artifact.scenario.ge_loss = true;
  artifact.scenario.duty_cycle_awake_fraction = 0.8;
  artifact.plan.crash(Time::seconds(8), NodeId{5});  // the culprit
  artifact.plan.crash_for(Time::seconds(2), NodeId{11},
                          Duration::seconds(1));
  artifact.plan.radio_blackout(Time::seconds(3), NodeId{17},
                               Duration::seconds(1));
  artifact.plan.sensor_dropout(Time::seconds(4), NodeId{23},
                               Duration::seconds(1));
  fault::PartitionSpec spec;
  spec.components.push_back({NodeId{1}, NodeId{2}, NodeId{3}});
  artifact.plan.burst_partition(Time::seconds(5), spec,
                                Duration::seconds(1),
                                Duration::seconds(1), 2);
  return artifact;
}

TEST(ChaosShrink, MinimizesToTheCulprit) {
  const ReproArtifact original = noisy_failing_artifact();
  ASSERT_TRUE(synthetic_failure(original));

  ShrinkStats stats;
  const ReproArtifact shrunk =
      shrink_artifact(original, synthetic_failure, {}, &stats);

  EXPECT_TRUE(synthetic_failure(shrunk))
      << "the shrunk artifact must still fail";
  EXPECT_EQ(shrunk.plan.events().size(), 1u)
      << "every fault except the culprit crash must be dropped";
  EXPECT_EQ(shrunk.plan.events().front().kind, fault::FaultKind::kCrash);
  EXPECT_EQ(shrunk.plan.events().front().node.value(), 5u);
  EXPECT_EQ(shrunk.scenario.cols, 8u)
      << "columns shrink to the predicate's floor";
  EXPECT_EQ(shrunk.scenario.rows, 2u);
  EXPECT_FALSE(shrunk.scenario.harass);
  EXPECT_FALSE(shrunk.scenario.ge_loss);
  EXPECT_DOUBLE_EQ(shrunk.scenario.duty_cycle_awake_fraction, 1.0);
  EXPECT_LE(shrunk.plan.events().front().at, Time::seconds(2))
      << "fault times are pulled earlier";
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GE(stats.attempts, stats.accepted);
}

TEST(ChaosShrink, NeverReturnsAPassingArtifact) {
  // A predicate that stops failing once anything is removed: the shrinker
  // must return the original unchanged.
  const ReproArtifact original = noisy_failing_artifact();
  const std::size_t original_events = original.plan.events().size();
  const auto only_original = [&](const ReproArtifact& candidate) {
    return candidate.plan.events().size() == original_events &&
           candidate.scenario.cols == original.scenario.cols &&
           candidate.scenario.harass && candidate.scenario.ge_loss;
  };
  const ReproArtifact shrunk = shrink_artifact(original, only_original);
  EXPECT_EQ(shrunk.plan.events().size(), original_events);
  EXPECT_TRUE(shrunk.scenario.harass);
}

TEST(ChaosShrink, RespectsAttemptBudget) {
  ShrinkOptions options;
  options.max_attempts = 5;
  ShrinkStats stats;
  shrink_artifact(noisy_failing_artifact(), synthetic_failure, options,
                  &stats);
  EXPECT_LE(stats.attempts, 5u);
}

}  // namespace
}  // namespace et::fuzz
