#pragma once

#include <cstdint>
#include <string>

#include "fault/fault_plan.hpp"
#include "scenario/tank.hpp"
#include "util/expected.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

/// Self-contained chaos-trial repro artifacts.
///
/// A chaos trial is fully determined by (seed, scenario knobs, fault plan):
/// re-running the same triple reproduces the run bit for bit on either
/// kernel. `ReproArtifact` is that triple plus provenance, with an exact
/// JSON round-trip (times as integer microseconds, objects rendered in a
/// fixed member order) so a failing trial can be written to disk, committed
/// into tests/chaos_corpus/, shrunk offline, and replayed byte-for-byte by
/// `chaos_fuzz --replay` or the corpus-replay test family.
namespace et::fuzz {

/// The scenario knobs the fuzzer randomizes, projected onto
/// TankScenarioParams by to_params(). Kept separate from the full params
/// struct so an artifact only carries what the generator actually varies —
/// everything else is pinned by to_params() and versioned by the artifact
/// format tag.
struct FuzzScenario {
  std::size_t rows = 3;
  std::size_t cols = 10;
  double speed_hops_per_s = 1.0;
  double track_y = 0.5;
  Duration heartbeat_period = Duration::millis(500);
  /// Awake fraction for unengaged motes; 1.0 = no duty cycling.
  double duty_cycle_awake_fraction = 1.0;
  /// Gilbert–Elliott burst loss (~20% effective) on the channel.
  bool ge_loss = false;
  /// Reliable (acked) transport under the report path.
  bool reliable_transport = false;
  Duration report_period = Duration::seconds(1);
  Duration cooldown = Duration::seconds(3);
  /// Dynamic leader harassment (crash whoever currently leads), layered on
  /// top of the static fault plan.
  bool harass = false;
  Duration harass_period = Duration::seconds(3);
  Duration harass_downtime = Duration::seconds(1);

  std::size_t node_count() const { return rows * cols; }

  /// Rough simulated length of the run (traverse + cooldown); the
  /// generator keeps fault times inside this horizon.
  Duration horizon() const;

  /// Full scenario params for one run: directory-backed epoch fencing on,
  /// deterministic for (scenario, seed, kernel).
  scenario::TankScenarioParams to_params(std::uint64_t seed,
                                         const sim::KernelConfig& kernel) const;

  util::Json to_json() const;
  static Expected<FuzzScenario> from_json(const util::Json& doc);
};

struct ReproArtifact {
  std::uint64_t seed = 1;
  FuzzScenario scenario;
  fault::FaultPlan plan;
  /// Provenance: generator seed/trial index, shrink lineage. Free-form.
  std::string note;
  /// Expected replay outcome: empty = the trial must pass every oracle
  /// (regression corpus on a healthy HEAD). Otherwise the first failing
  /// oracle's name must start with this string (known-bug repros, and the
  /// scratch-branch "re-introduced fault is caught" check).
  std::string expect_failure;

  util::Json to_json() const;
  std::string to_json_string() const { return to_json().dump(2) + "\n"; }
  static Expected<ReproArtifact> from_json(const util::Json& doc);
  static Expected<ReproArtifact> from_json_string(std::string_view text);
};

}  // namespace et::fuzz
