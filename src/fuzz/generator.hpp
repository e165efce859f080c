#pragma once

#include <cstdint>

#include "fuzz/artifact.hpp"

/// Seeded chaos-trial generation.
///
/// `generate_artifact(seed)` samples one randomized scenario (grid shape,
/// target speed, heartbeat period, duty cycle, channel model)
/// plus a fault plan of composed, overlapping faults (crash/reboot, radio
/// blackouts, sensor dropouts, burst partitions, leader harassment) with
/// randomized timing and victim sets. The artifact is a pure function of
/// the seed: trial N of a fuzzing campaign is `generate_artifact(base + N)`
/// and can be regenerated (or replayed from its JSON) without any saved RNG
/// state.
namespace et::fuzz {

struct GeneratorConfig {
  std::size_t min_faults = 1;
  std::size_t max_faults = 6;
  std::size_t min_rows = 2;
  std::size_t max_rows = 4;
  std::size_t min_cols = 6;
  std::size_t max_cols = 14;
  /// Probability knobs for the optional stressors.
  double p_ge_loss = 0.5;
  double p_reliable_transport = 0.35;
  double p_duty_cycle = 0.3;
  double p_harass = 0.35;
};

ReproArtifact generate_artifact(std::uint64_t seed,
                                const GeneratorConfig& config = {});

}  // namespace et::fuzz
