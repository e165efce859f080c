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

ReproArtifact generate_artifact(std::uint64_t seed);

}  // namespace et::fuzz
