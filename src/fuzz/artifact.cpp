#include "fuzz/artifact.hpp"

#include <algorithm>
#include <utility>

namespace et::fuzz {

namespace {

constexpr const char* kFormatTag = "et-chaos-repro-v1";

Expected<FuzzScenario> scenario_fail(std::string message) {
  return Expected<FuzzScenario>::failure("chaos_artifact", std::move(message));
}

Expected<ReproArtifact> artifact_fail(std::string message) {
  return Expected<ReproArtifact>::failure("chaos_artifact",
                                          std::move(message));
}

/// Reads a positive integer-microsecond duration member.
bool read_duration_us(const util::Json& doc, std::string_view key,
                      Duration* out) {
  const util::Json& value = doc[key];
  if (!value.is_int()) return false;
  *out = Duration::micros(value.as_int());
  return true;
}

}  // namespace

Duration FuzzScenario::horizon() const {
  // The target enters one hop left of the field and leaves one hop right
  // of it; grid spacing is one hop.
  const double traverse_s =
      (static_cast<double>(cols) + 2.0) / std::max(speed_hops_per_s, 0.1);
  return Duration::seconds(traverse_s) + cooldown;
}

scenario::TankScenarioParams FuzzScenario::to_params(
    std::uint64_t seed, const sim::KernelConfig& kernel) const {
  scenario::TankScenarioParams params;
  params.rows = rows;
  params.cols = cols;
  params.speed_hops_per_s = speed_hops_per_s;
  params.track_y = track_y;
  params.group.heartbeat_period = heartbeat_period;
  params.duty_cycle_awake_fraction = duty_cycle_awake_fraction;
  if (ge_loss) params.radio.burst_loss = scenario::twenty_pct_burst_loss();
  params.enable_transport = reliable_transport;
  // The fence path (and therefore the epoch invariants under partitions)
  // needs the directory rendezvous.
  params.enable_directory = true;
  params.directory.update_period = Duration::seconds(1);
  params.report_period = report_period;
  params.cooldown = cooldown;
  params.kernel = kernel;
  params.seed = seed;
  return params;
}

util::Json FuzzScenario::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("rows", static_cast<std::int64_t>(rows));
  doc.set("cols", static_cast<std::int64_t>(cols));
  doc.set("speed_hops_per_s", speed_hops_per_s);
  doc.set("track_y", track_y);
  doc.set("heartbeat_us", heartbeat_period.to_micros());
  doc.set("duty_cycle_awake_fraction", duty_cycle_awake_fraction);
  doc.set("ge_loss", ge_loss);
  doc.set("reliable_transport", reliable_transport);
  doc.set("report_period_us", report_period.to_micros());
  doc.set("cooldown_us", cooldown.to_micros());
  doc.set("harass", harass);
  doc.set("harass_period_us", harass_period.to_micros());
  doc.set("harass_downtime_us", harass_downtime.to_micros());
  return doc;
}

Expected<FuzzScenario> FuzzScenario::from_json(const util::Json& doc) {
  if (!doc.is_object()) return scenario_fail("scenario must be an object");
  FuzzScenario s;
  if (!doc["rows"].is_int() || !doc["cols"].is_int()) {
    return scenario_fail("scenario rows/cols must be integers");
  }
  const std::int64_t rows = doc["rows"].as_int();
  const std::int64_t cols = doc["cols"].as_int();
  if (rows < 1 || cols < 2 || rows * cols > 4096) {
    return scenario_fail("scenario grid out of range (rows >= 1, cols >= 2, "
                         "rows*cols <= 4096)");
  }
  s.rows = static_cast<std::size_t>(rows);
  s.cols = static_cast<std::size_t>(cols);
  if (!doc["speed_hops_per_s"].is_number()) {
    return scenario_fail("scenario needs a numeric speed_hops_per_s");
  }
  s.speed_hops_per_s = doc["speed_hops_per_s"].as_double();
  if (s.speed_hops_per_s <= 0.0 || s.speed_hops_per_s > 100.0) {
    return scenario_fail("speed_hops_per_s must be in (0, 100]");
  }
  s.track_y = doc["track_y"].as_double(s.track_y);
  if (!read_duration_us(doc, "heartbeat_us", &s.heartbeat_period) ||
      !s.heartbeat_period.is_positive()) {
    return scenario_fail("heartbeat_us must be a positive integer");
  }
  s.duty_cycle_awake_fraction =
      doc["duty_cycle_awake_fraction"].as_double(1.0);
  if (s.duty_cycle_awake_fraction <= 0.0 ||
      s.duty_cycle_awake_fraction > 1.0) {
    return scenario_fail("duty_cycle_awake_fraction must be in (0, 1]");
  }
  s.ge_loss = doc["ge_loss"].as_bool(false);
  s.reliable_transport = doc["reliable_transport"].as_bool(false);
  // Artifacts once carried a window-mode key. A narrow-window repro must
  // not silently replay under the wide semantics, so it is refused.
  if (!doc["wide_windows"].as_bool(true)) {
    return scenario_fail(
        "wide_windows=false: the narrow-window mode was removed, so this "
        "repro cannot replay under the semantics it was recorded with");
  }
  if (!read_duration_us(doc, "report_period_us", &s.report_period) ||
      !s.report_period.is_positive()) {
    return scenario_fail("report_period_us must be a positive integer");
  }
  if (!read_duration_us(doc, "cooldown_us", &s.cooldown) ||
      s.cooldown.is_negative()) {
    return scenario_fail("cooldown_us must be a non-negative integer");
  }
  s.harass = doc["harass"].as_bool(false);
  if (s.harass) {
    if (!read_duration_us(doc, "harass_period_us", &s.harass_period) ||
        !s.harass_period.is_positive() ||
        !read_duration_us(doc, "harass_downtime_us", &s.harass_downtime) ||
        !s.harass_downtime.is_positive()) {
      return scenario_fail(
          "harassment needs positive harass_period_us/harass_downtime_us");
    }
  }
  return s;
}

util::Json ReproArtifact::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("format", kFormatTag);
  doc.set("seed", static_cast<std::int64_t>(seed));
  doc.set("scenario", scenario.to_json());
  doc.set("plan", plan.to_json());
  if (!note.empty()) doc.set("note", note);
  if (!expect_failure.empty()) doc.set("expect_failure", expect_failure);
  return doc;
}

Expected<ReproArtifact> ReproArtifact::from_json(const util::Json& doc) {
  if (!doc.is_object()) return artifact_fail("artifact must be an object");
  if (!doc["format"].is_string() ||
      doc["format"].as_string() != kFormatTag) {
    return artifact_fail("unknown artifact format (expected '" +
                         std::string(kFormatTag) + "')");
  }
  ReproArtifact artifact;
  if (!doc["seed"].is_int() || doc["seed"].as_int() < 0) {
    return artifact_fail("'seed' must be a non-negative integer");
  }
  artifact.seed = static_cast<std::uint64_t>(doc["seed"].as_int());
  Expected<FuzzScenario> scenario = FuzzScenario::from_json(doc["scenario"]);
  if (!scenario.ok()) {
    return artifact_fail("bad scenario: " + scenario.error().message);
  }
  artifact.scenario = std::move(scenario).value();
  Expected<fault::FaultPlan> plan = fault::FaultPlan::from_json(doc["plan"]);
  if (!plan.ok()) {
    return artifact_fail("bad fault plan: " + plan.error().message);
  }
  artifact.plan = std::move(plan).value();
  artifact.note = doc["note"].as_string();
  artifact.expect_failure = doc["expect_failure"].as_string();
  // A plan that cannot be scheduled against this deployment is not a valid
  // artifact — reject at parse time, with the first concrete reason.
  const std::vector<std::string> problems =
      artifact.plan.validate(artifact.scenario.node_count());
  if (!problems.empty()) {
    return artifact_fail("plan invalid for a " +
                         std::to_string(artifact.scenario.node_count()) +
                         "-mote deployment: " + problems.front());
  }
  return artifact;
}

Expected<ReproArtifact> ReproArtifact::from_json_string(
    std::string_view text) {
  Expected<util::Json> doc = util::parse_json(text);
  if (!doc.ok()) {
    return artifact_fail("artifact is not valid JSON: " +
                         doc.error().message);
  }
  return from_json(doc.value());
}

}  // namespace et::fuzz
