#include "fuzz/trial.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "fault/fault_injector.hpp"
#include "metrics/invariants.hpp"
#include "metrics/json_rows.hpp"
#include "serve/ingest.hpp"
#include "serve/track_store.hpp"

namespace et::fuzz {

namespace {

struct RunOutput {
  metrics::ChaosVerdict verdict;
  std::string digest;
  double sim_seconds = 0.0;
  std::uint64_t faults = 0;
};

/// Serve-answer validation: every query family of the store is checked
/// against the ingest tape — the in-order record of every admitted report,
/// which is ground truth for what the store must contain.
void validate_serve(const serve::ShardedTrackStore& store,
                    const std::vector<metrics::DecodedTrack>& tape,
                    std::size_t ring_capacity,
                    metrics::ChaosVerdict* verdict) {
  std::map<std::uint64_t, std::vector<const metrics::DecodedTrack*>>
      by_label;
  for (const metrics::DecodedTrack& report : tape) {
    by_label[report.label.value()].push_back(&report);
  }

  bool ok = true;
  const auto fail = [&](std::string detail) {
    verdict->fail("serve-validate", std::move(detail));
    ok = false;
  };

  for (const auto& [label_value, reports] : by_label) {
    const LabelId label{label_value};
    const std::string tag = "label " + std::to_string(label_value);

    const auto snapshot = store.latest(label);
    if (!snapshot.has_value()) {
      fail(tag + ": latest() lost a label the tape ingested");
      continue;
    }
    const metrics::DecodedTrack& last = *reports.back();
    if (snapshot->position.x != last.position.x ||
        snapshot->position.y != last.position.y ||
        snapshot->time != last.time || snapshot->epoch != last.epoch) {
      fail(tag + ": latest() disagrees with the tape's final report");
    }
    if (snapshot->seq != reports.size()) {
      fail(tag + ": latest().seq " + std::to_string(snapshot->seq) +
           " != " + std::to_string(reports.size()) + " tape reports");
    }

    const std::vector<serve::TrackSnapshot> history =
        store.history(label, Duration::seconds(1e8));
    const std::size_t expected =
        std::min(reports.size(), ring_capacity);
    if (history.size() != expected) {
      fail(tag + ": history() returned " + std::to_string(history.size()) +
           " points, expected " + std::to_string(expected));
      continue;
    }
    const std::size_t base = reports.size() - expected;
    for (std::size_t i = 0; i < expected; ++i) {
      const metrics::DecodedTrack& want = *reports[base + i];
      const serve::TrackSnapshot& got = history[i];
      if (got.position.x != want.position.x ||
          got.position.y != want.position.y || got.time != want.time ||
          got.epoch != want.epoch || got.seq != base + i + 1) {
        fail(tag + ": history()[" + std::to_string(i) +
             "] disagrees with the tape");
        break;
      }
    }
  }

  // An everything-rect query must answer exactly the tape's label set,
  // sorted by label id.
  const Rect everywhere{{-1e12, -1e12}, {1e12, 1e12}};
  const std::vector<serve::TrackSnapshot> all =
      store.tracks_in_region(everywhere);
  if (all.size() != by_label.size()) {
    fail("tracks_in_region(everything) returned " +
         std::to_string(all.size()) + " tracks, tape has " +
         std::to_string(by_label.size()) + " labels");
  } else {
    auto it = by_label.begin();
    for (std::size_t i = 0; i < all.size(); ++i, ++it) {
      if (all[i].label.value() != it->first) {
        fail("tracks_in_region(everything) label set or order diverged "
             "from the tape at index " +
             std::to_string(i));
        break;
      }
    }
  }

  if (ok) verdict->pass("serve-validate");
}

/// The deterministic metric digest one kernel's run reduces to. Two runs
/// of the same artifact on different kernels must render byte-identical
/// digests — this is the differential oracle's input.
std::string build_digest(const scenario::TankRunResult& result,
                         const metrics::InvariantOracle& oracle,
                         const serve::TrackIngest& ingest,
                         const serve::ShardedTrackStore& store,
                         const sim::WatchdogReport& watchdog,
                         std::uint64_t seed) {
  metrics::JsonRows rows;
  const std::string config = "trial";
  const auto add = [&](const std::string& metric, double value) {
    rows.add_exact(config, seed, metric, value);
  };

  add("tracking.distinct_labels",
      static_cast<double>(result.tracking.distinct_labels));
  add("tracking.tracked_samples",
      static_cast<double>(result.tracking.tracked_samples));
  add("tracking.total_samples",
      static_cast<double>(result.tracking.total_samples));
  add("tracking.replicated_samples",
      static_cast<double>(result.tracking.replicated_samples));
  add("tracking.successful_handovers",
      static_cast<double>(result.tracking.successful_handovers));
  add("tracking.failed_handovers",
      static_cast<double>(result.tracking.failed_handovers));
  add("tracking.detection_latency_s",
      result.tracking.detection_latency.to_seconds());

  add("groups.heartbeats_sent",
      static_cast<double>(result.groups.heartbeats_sent));
  add("groups.labels_created",
      static_cast<double>(result.groups.labels_created));
  add("groups.takeovers", static_cast<double>(result.groups.takeovers));
  add("groups.relinquishes",
      static_cast<double>(result.groups.relinquishes));
  add("groups.yields", static_cast<double>(result.groups.yields));
  add("groups.joins", static_cast<double>(result.groups.joins));
  add("groups.fenced", static_cast<double>(result.groups.fenced));
  add("groups.stale_heartbeats_ignored",
      static_cast<double>(result.groups.stale_heartbeats_ignored));
  add("groups.epochs_absorbed",
      static_cast<double>(result.groups.epochs_absorbed));
  add("groups.reports_sent",
      static_cast<double>(result.groups.reports_sent));
  add("groups.reports_received",
      static_cast<double>(result.groups.reports_received));

  const radio::TypeStats medium = result.medium.totals();
  add("medium.offered", static_cast<double>(medium.offered));
  add("medium.transmitted", static_cast<double>(medium.transmitted));
  add("medium.mac_dropped", static_cast<double>(medium.mac_dropped));
  add("medium.lost", static_cast<double>(medium.lost));
  add("medium.bits_sent", static_cast<double>(result.medium.bits_sent));
  add("medium.airtime_s", result.medium.airtime.to_seconds());

  // The pursuer-side track tape, point by point: position divergence
  // anywhere in the run shows up as the first differing row.
  add("track.points", static_cast<double>(result.track.size()));
  for (std::size_t i = 0; i < result.track.size(); ++i) {
    const metrics::TrackPoint& point = result.track[i];
    const std::string prefix = "track." + std::to_string(i);
    add(prefix + ".t", point.time.to_seconds());
    add(prefix + ".label", static_cast<double>(point.label.value()));
    add(prefix + ".x", point.reported.x);
    add(prefix + ".y", point.reported.y);
    add(prefix + ".error", point.error);
  }

  const serve::IngestStats ingest_stats = ingest.stats();
  add("ingest.reports_seen",
      static_cast<double>(ingest_stats.reports_seen));
  add("ingest.stale_discarded",
      static_cast<double>(ingest_stats.stale_discarded));
  add("ingest.batches_flushed",
      static_cast<double>(ingest_stats.batches_flushed));
  add("ingest.reports_stored",
      static_cast<double>(ingest_stats.reports_stored));

  add("tape.size", static_cast<double>(ingest.tape().size()));
  for (std::size_t i = 0; i < ingest.tape().size(); ++i) {
    const metrics::DecodedTrack& report = ingest.tape()[i];
    const std::string prefix = "tape." + std::to_string(i);
    add(prefix + ".t", report.time.to_seconds());
    add(prefix + ".label", static_cast<double>(report.label.value()));
    add(prefix + ".source", static_cast<double>(report.source.value()));
    add(prefix + ".x", report.position.x);
    add(prefix + ".y", report.position.y);
    add(prefix + ".epoch", static_cast<double>(report.epoch));
  }

  const serve::StoreStats store_stats = store.stats();
  add("store.reports_applied",
      static_cast<double>(store_stats.reports_applied));
  add("store.labels", static_cast<double>(store_stats.labels));
  add("store.points_evicted",
      static_cast<double>(store_stats.points_evicted));

  add("oracle.checks_run", static_cast<double>(oracle.checks_run()));
  add("oracle.violations",
      static_cast<double>(oracle.violations().size()));
  add("watchdog.tripped", watchdog.tripped ? 1.0 : 0.0);
  add("elapsed_s", result.elapsed.to_seconds());
  return rows.render();
}

RunOutput run_one(const ReproArtifact& artifact,
                  const sim::KernelConfig& kernel,
                  const TrialOptions& options) {
  RunOutput out;
  const scenario::TankScenarioParams params =
      artifact.scenario.to_params(artifact.seed, kernel);
  scenario::TankScenario scenario(params);
  metrics::InvariantOracle oracle(scenario.system());

  serve::StoreConfig store_config;
  serve::ShardedTrackStore store(store_config);
  serve::IngestConfig ingest_config;
  ingest_config.record_tape = true;
  serve::TrackIngest ingest(scenario.system(), NodeId{0}, store,
                            ingest_config);

  fault::FaultInjector injector(scenario.system());
  const Expected<std::size_t> scheduled = injector.schedule(artifact.plan);
  if (!scheduled.ok()) {
    out.verdict.fail("fault-plan", scheduled.error().message);
    return out;
  }
  out.faults = scheduled.value();
  if (artifact.scenario.harass) {
    const Expected<std::size_t> harass = injector.harass_leaders(
        scenario.tracker_type(), artifact.scenario.harass_period,
        artifact.scenario.harass_downtime);
    if (!harass.ok()) {
      out.verdict.fail("fault-plan", harass.error().message);
      return out;
    }
  }

  // The watchdog arms the master engine; under the parallel kernel it
  // bounds the run at window-barrier granularity (tile engines replay
  // into the master, so a storm still shows up in its event counts).
  sim::WatchdogConfig watchdog;
  watchdog.enabled = true;
  watchdog.max_events_per_sim_second = options.max_events_per_sim_second;
  watchdog.max_wall_ms_per_sim_second = options.max_wall_ms_per_sim_second;
  scenario.sim().set_watchdog(watchdog);

  const scenario::TankRunResult result = scenario.run();
  ingest.flush();

  const sim::WatchdogReport& report = scenario.sim().watchdog_report();
  if (report.tripped) {
    out.verdict.fail("watchdog", report.reason, report.at.to_seconds());
  } else {
    out.verdict.pass("watchdog");
  }

  if (oracle.ok()) {
    out.verdict.pass("invariants");
  } else {
    for (const metrics::InvariantViolation& violation :
         oracle.violations()) {
      out.verdict.fail(std::string("invariant:") +
                           metrics::invariant_kind_name(violation.kind),
                       violation.detail, violation.time.to_seconds());
    }
  }

  validate_serve(store, ingest.tape(), store_config.ring_capacity,
                 &out.verdict);

  out.digest =
      build_digest(result, oracle, ingest, store, report, artifact.seed);
  out.sim_seconds = result.elapsed.to_seconds();
  return out;
}

/// First differing digest row, for the differential failure detail.
std::string first_digest_diff(const std::string& serial,
                              const std::string& parallel) {
  std::size_t line = 0;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < serial.size() && b < parallel.size()) {
    const std::size_t a_end = serial.find('\n', a);
    const std::size_t b_end = parallel.find('\n', b);
    const std::string row_a = serial.substr(a, a_end - a);
    const std::string row_b = parallel.substr(b, b_end - b);
    if (row_a != row_b) {
      return "digest row " + std::to_string(line) + ": serial " + row_a +
             " vs parallel " + row_b;
    }
    if (a_end == std::string::npos || b_end == std::string::npos) break;
    a = a_end + 1;
    b = b_end + 1;
    ++line;
  }
  return "digests differ in length (serial " +
         std::to_string(serial.size()) + " bytes, parallel " +
         std::to_string(parallel.size()) + " bytes)";
}

}  // namespace

TrialResult run_trial(const ReproArtifact& artifact,
                      const TrialOptions& options) {
  TrialResult trial;

  const RunOutput serial_run = run_one(artifact, sim::KernelConfig{}, options);
  trial.verdict.merge(serial_run.verdict, "serial");
  trial.digest = serial_run.digest;
  trial.sim_seconds = serial_run.sim_seconds;
  trial.faults_scheduled = serial_run.faults;

  if (!options.differential) return trial;
  if (!serial_run.verdict.ok()) {
    // The serial run already failed. Re-running e.g. a livelock on the
    // parallel kernel would stall the campaign for no extra signal, so
    // the differential is recorded as not-run rather than passed.
    return trial;
  }

  sim::KernelConfig parallel;
  parallel.use_parallel_kernel = true;
  parallel.threads = std::max(1u, options.threads);
  const RunOutput parallel_run = run_one(artifact, parallel, options);
  trial.verdict.merge(parallel_run.verdict, "parallel");
  if (parallel_run.digest == serial_run.digest) {
    trial.verdict.pass("differential");
  } else {
    trial.verdict.fail(
        "differential",
        first_digest_diff(serial_run.digest, parallel_run.digest));
  }
  return trial;
}

bool matches_expectation(const ReproArtifact& artifact,
                         const metrics::ChaosVerdict& verdict) {
  if (artifact.expect_failure.empty()) return verdict.ok();
  const metrics::OracleFinding* first = verdict.first_failure();
  if (first == nullptr) return false;
  std::string name = first->oracle;
  for (const char* prefix : {"serial/", "parallel/"}) {
    const std::string p(prefix);
    if (name.rfind(p, 0) == 0) {
      name = name.substr(p.size());
      break;
    }
  }
  return name.rfind(artifact.expect_failure, 0) == 0;
}

}  // namespace et::fuzz
