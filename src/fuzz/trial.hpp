#pragma once

#include <cstdint>
#include <string>

#include "fuzz/artifact.hpp"
#include "metrics/verdict.hpp"

/// One chaos trial under the stacked oracles.
///
/// `run_trial` executes the artifact twice — once on the serial kernel,
/// once on `parallel:N` — and judges each run with:
///
///   - the runtime protocol-invariant oracle (metrics/invariants.hpp),
///   - serve-answer validation: the sharded track store's `latest`,
///     `history`, and `tracks_in_region` answers are checked against the
///     ingest tape (the in-order ground truth of every admitted report),
///   - the simulator's no-progress watchdog (event-count and wall-clock
///     budgets per simulated second),
///
/// and then byte-diffs the two runs' metric digests — deterministic
/// {config, seed, metric, value} rows covering tracking, group-protocol,
/// medium, serving-tier, and per-report track-tape state — as the
/// serial-vs-parallel differential oracle. Any divergence names the first
/// differing row.
namespace et::fuzz {

struct TrialOptions {
  /// Worker threads for the parallel half of the differential.
  unsigned threads = 2;
  /// Run the parallel half at all. The shrinker may disable it when
  /// minimizing a failure the serial run already exhibits.
  bool differential = true;
  /// Watchdog budgets (generous: an order of magnitude above what a
  /// healthy trial of the largest generated scenario needs).
  std::uint64_t max_events_per_sim_second = 2'000'000;
  std::uint64_t max_wall_ms_per_sim_second = 20'000;
};

struct TrialResult {
  metrics::ChaosVerdict verdict;
  /// Metric digest of the serial run (and, when it matched, the parallel
  /// run). Deterministic for (artifact, options).
  std::string digest;
  double sim_seconds = 0.0;
  std::uint64_t faults_scheduled = 0;
};

TrialResult run_trial(const ReproArtifact& artifact,
                      const TrialOptions& options = {});

/// Whether `verdict`'s first failure matches the artifact's
/// `expect_failure` contract: an empty expectation means the verdict must
/// be clean; otherwise the first failing oracle's name must start with the
/// expectation (after stripping a "serial/"/"parallel/" prefix, so
/// expectations stay kernel-agnostic).
bool matches_expectation(const ReproArtifact& artifact,
                         const metrics::ChaosVerdict& verdict);

}  // namespace et::fuzz
