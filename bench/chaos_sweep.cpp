/// Chaos sweep — recovery under injected faults.
///
/// The paper's §2 robustness claim ("applications must not depend on the
/// correctness or availability of any particular node") quantified: the
/// tank scenario runs under periodic leader crash+reboot plus a
/// Gilbert–Elliott burst-loss channel, and we measure how the protocol
/// heals.
///
/// Four experiments:
///  1. recovery time vs heartbeat period — takeover latency is bounded by
///     the receive timer (2.1 x HB), so mean time-to-takeover should scale
///     roughly linearly with the period;
///  2. tracking quality vs fault rate — more frequent leader crashes widen
///     the integrated tracking gap and eventually break label continuity;
///  3. partition/heal chaos with the runtime invariant oracle attached —
///     square-wave partitions across the tracked traverse must produce
///     ZERO protocol-invariant violations (the bench exits non-zero and
///     prints the oracle trace otherwise);
///  4. acked transport vs fire-and-forget under ~20% Gilbert–Elliott burst
///     loss — the reliability layer must demonstrably raise the end-to-end
///     invoke delivery fraction (enforced, non-zero exit otherwise).
///
/// All points are deterministic for a fixed seed: results are reported in
/// job order, so serial (ET_BENCH_THREADS=1) and parallel sweeps print
/// byte-identical output. Set ET_BENCH_JSON_DIR to persist every per-seed
/// measurement as {config, seed, metric, value} rows in BENCH_chaos.json.

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/sweep_runner.hpp"
#include "core/transport.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/invariants.hpp"
#include "metrics/json_rows.hpp"
#include "metrics/recovery.hpp"
#include "metrics/trace.hpp"
#include "scenario/tank.hpp"

namespace {

using namespace et;
using namespace et::scenario;

struct ChaosPoint {
  double leader_faults = 0.0;
  double recoveries = 0.0;
  double mean_takeover_s = 0.0;
  double label_preserved = 0.0;  // fraction of recoveries keeping the label
  double tracking_gap_s = 0.0;
  double distinct_labels = 0.0;
  double tracked_fraction = 0.0;
};

TankScenarioParams base_params(std::uint64_t seed) {
  TankScenarioParams params;
  params.rows = 3;
  params.cols = 12;
  params.speed_hops_per_s = 1.0;
  params.group.heartbeat_period = Duration::seconds(0.5);
  // Bursty MICA-style losses instead of i.i.d. noise.
  params.radio.burst_loss.enabled = true;
  params.kernel = bench::kernel_from_env();
  params.seed = seed;
  return params;
}

/// One seeded chaos run: tank traverse + periodic leader harassment + GE
/// loss, instrumented with the recovery monitor.
ChaosPoint chaos_run(const TankScenarioParams& params, Duration crash_period,
                     Duration downtime) {
  TankScenario scenario(params);
  fault::FaultInjector injector(scenario.system());
  metrics::RecoveryMonitor recovery(scenario.system(), injector,
                                    Duration::millis(100));
  injector.harass_leaders(scenario.tracker_type(), crash_period, downtime);
  const TankRunResult result = scenario.run();

  ChaosPoint point;
  point.leader_faults =
      static_cast<double>(recovery.stats().leader_faults);
  point.recoveries = static_cast<double>(recovery.stats().recoveries);
  point.mean_takeover_s = recovery.mean_takeover_seconds();
  point.label_preserved = recovery.label_preserved_fraction();
  point.tracking_gap_s = recovery.tracking_gap_seconds();
  point.distinct_labels =
      static_cast<double>(result.tracking.distinct_labels);
  point.tracked_fraction = result.tracking.tracked_fraction();
  return point;
}

ChaosPoint average(const std::vector<ChaosPoint>& points) {
  ChaosPoint mean;
  if (points.empty()) return mean;
  for (const ChaosPoint& p : points) {
    mean.leader_faults += p.leader_faults;
    mean.recoveries += p.recoveries;
    mean.mean_takeover_s += p.mean_takeover_s;
    mean.label_preserved += p.label_preserved;
    mean.tracking_gap_s += p.tracking_gap_s;
    mean.distinct_labels += p.distinct_labels;
    mean.tracked_fraction += p.tracked_fraction;
  }
  const double n = static_cast<double>(points.size());
  mean.leader_faults /= n;
  mean.recoveries /= n;
  mean.mean_takeover_s /= n;
  mean.label_preserved /= n;
  mean.tracking_gap_s /= n;
  mean.distinct_labels /= n;
  mean.tracked_fraction /= n;
  return mean;
}

// --- Sweep 3: partition/heal chaos under the invariant oracle ------------

struct PartitionPoint {
  double violations = 0.0;
  double checks = 0.0;
  double tracked_fraction = 0.0;
  double takeovers = 0.0;
  double fenced = 0.0;
  std::string oracle_report;  // non-empty only when an invariant broke
  /// Names of the violated invariants ("dual-leader", ...), for the
  /// greppable CHAOS_ORACLE_VIOLATION lines CI surfaces in step summaries.
  std::vector<std::string> violated_kinds;
};

/// One seeded run: tank traverse + square-wave partition splitting the
/// field in half, directory-backed epoch fencing on, the oracle watching
/// every group/transport event.
PartitionPoint partition_run(std::uint64_t seed, Duration downtime) {
  TankScenarioParams params = base_params(seed);
  params.enable_directory = true;  // fence path needs the rendezvous
  params.directory.update_period = Duration::seconds(1);
  TankScenario scenario(params);
  metrics::InvariantOracle oracle(scenario.system());

  fault::PartitionSpec spec;
  std::vector<NodeId> left;
  const Rect bounds = scenario.system().field().bounds();
  const double boundary = bounds.min.x + bounds.width() / 2.0;
  for (std::size_t i = 0; i < scenario.system().node_count(); ++i) {
    const NodeId id{i};
    if (scenario.system().network().mote(id).position().x < boundary) {
      left.push_back(id);
    }
  }
  spec.components.push_back(std::move(left));

  fault::FaultInjector injector(scenario.system());
  fault::FaultPlan plan;
  plan.burst_partition(Time::seconds(2), spec, downtime,
                       Duration::seconds(1.5), 3);
  injector.schedule(plan);
  const TankRunResult result = scenario.run();

  PartitionPoint point;
  point.violations = static_cast<double>(oracle.violations().size());
  point.checks = static_cast<double>(oracle.checks_run());
  point.tracked_fraction = result.tracking.tracked_fraction();
  point.takeovers = static_cast<double>(result.groups.takeovers);
  point.fenced = static_cast<double>(result.groups.fenced);
  if (!oracle.ok()) {
    point.oracle_report = oracle.report();
    for (const metrics::InvariantViolation& violation : oracle.violations()) {
      point.violated_kinds.emplace_back(
          metrics::invariant_kind_name(violation.kind));
    }
  }
  return point;
}

// --- Sweep 4: acked transport vs fire-and-forget under burst loss --------

struct DeliveryPoint {
  double attempted = 0.0;
  double delivered = 0.0;
  double delivered_fraction = 0.0;
  double retransmits = 0.0;
  double delivery_failures = 0.0;
};

/// One seeded run: a stationary "blob" entity on one side of a 5x12 grid
/// invokes a port on a "station" context two hops away, every 250 ms for
/// 40 s, through the burst-loss channel. Delivered fraction = method
/// dispatches at the station / invokes issued at the blob leader. The
/// only difference between the two configs is TransportConfig::reliable.
DeliveryPoint delivery_run(std::uint64_t seed, bool reliable) {
  sim::Simulator sim(seed);
  env::Environment env(sim.make_rng("env"));
  const env::Field field = env::Field::grid(5, 12);

  core::SystemConfig config;
  config.radio.comm_radius = 6.0;
  config.radio.burst_loss = twenty_pct_burst_loss();
  // Keep the channel a pure ~20% GE process: with comm radius 6 the whole
  // 5x12 grid is one collision domain, and the default collision model
  // would dominate the loss figure we are sweeping.
  config.radio.model_collisions = false;
  config.radio.carrier_sense_miss = 0.0;
  // Directory + transport traffic overflows the 12-slot default CPU queue;
  // silent task drops would masquerade as channel loss.
  config.cpu.queue_capacity = 64;
  config.middleware.enable_directory = true;
  config.middleware.enable_transport = true;
  config.middleware.transport.reliable = reliable;
  config.middleware.group.suppression_radius = 2.4;
  config.middleware.group.wait_radius = 2.7;
  config.kernel = bench::kernel_from_env();
  core::EnviroTrackSystem system(sim, env, field, config);
  system.senses().add("blob_sensor", core::sense_target("blob"));
  system.senses().add("station_sensor", core::sense_target("station"));

  core::ContextTypeSpec blob_spec;
  blob_spec.name = "blob";
  blob_spec.activation = "blob_sensor";
  blob_spec.variables.push_back(core::AggregateVarSpec{
      "where", "avg", "position", Duration::seconds(1), 2});
  const core::TypeIndex blob_type =
      system.add_context_type(std::move(blob_spec));

  // Distinct invocations delivered (by step argument). Delivery across a
  // leader migration is at-least-once — the same invocation can dispatch
  // at the old and the new leader — so a raw dispatch count would exceed
  // the attempts and overstate the delivery fraction.
  std::vector<bool> seen(160, false);
  core::ContextTypeSpec station_spec;
  station_spec.name = "station";
  station_spec.activation = "station_sensor";
  station_spec.variables.push_back(core::AggregateVarSpec{
      "level", "avg", "magnetic", Duration::seconds(2), 1});
  core::ObjectSpec sink;
  sink.name = "sink";
  core::MethodSpec ping;
  ping.name = "ping";
  ping.invocation.kind = core::InvocationSpec::Kind::kCondition;
  ping.invocation.condition = [](core::TrackingContext&) { return false; };
  ping.body = [&seen](core::TrackingContext& ctx) {
    const auto& args = ctx.incoming_args();
    if (!args.empty()) {
      const auto step = static_cast<std::size_t>(args[0]);
      if (step < seen.size()) seen[step] = true;
    }
  };
  sink.methods.push_back(std::move(ping));
  station_spec.objects.push_back(std::move(sink));
  const core::TypeIndex station_type =
      system.add_context_type(std::move(station_spec));
  system.start();

  env::Target blob;
  blob.type = "blob";
  blob.trajectory =
      std::make_unique<env::StationaryTrajectory>(Vec2{2.0, 2.0});
  blob.radius = env::RadiusProfile::constant(1.2);
  blob.emissions["magnetic"] = 10.0;
  env.add_target(std::move(blob));

  env::Target station;
  station.type = "station";
  station.trajectory =
      std::make_unique<env::StationaryTrajectory>(Vec2{9.0, 2.0});
  station.radius = env::RadiusProfile::constant(1.2);
  station.emissions["magnetic"] = 5.0;
  env.add_target(std::move(station));

  system.run_for(Duration::seconds(6));  // group + directory warm-up

  // Lowest-id current leader of a type. Under burst loss a group briefly
  // shows two leaders mid-handoff; demanding a *sole* leader would skip
  // most steps and measure leader churn instead of transport delivery.
  const auto first_leader =
      [&system](core::TypeIndex type) -> std::optional<NodeId> {
    const std::vector<NodeId> leaders = system.leaders(type);
    if (leaders.empty()) return std::nullopt;
    return leaders.front();
  };

  int attempted = 0;
  LabelId station_label;  // last-seen label survives leaderless gaps
  for (int step = 0; step < 160; ++step) {  // 40 s of periodic invokes
    if (const auto sink_leader = first_leader(station_type)) {
      const LabelId fresh =
          system.stack(*sink_leader).groups().current_label(station_type);
      if (fresh.is_valid()) station_label = fresh;
    }
    const auto origin = first_leader(blob_type);
    if (origin && station_label.is_valid()) {
      // The invoke schedules mote-side work from outside any event;
      // attribute it to the origin so its keys match on every kernel.
      sim::ExecutingOwnerScope scope(
          sim, static_cast<std::uint32_t>(origin->value()));
      system.stack(*origin).transport()->invoke(
          station_type, station_label, PortId{0},
          {static_cast<double>(step)});
      ++attempted;
    }
    system.run_for(Duration::millis(250));
  }
  // Drain in-flight retransmits: the full backoff ladder on a 1.2 s base
  // runs past 20 s worst case.
  system.run_for(Duration::seconds(15));

  DeliveryPoint point;
  point.attempted = static_cast<double>(attempted);
  int delivered = 0;
  for (const bool hit : seen) delivered += hit ? 1 : 0;
  point.delivered = static_cast<double>(delivered);
  point.delivered_fraction =
      attempted > 0 ? static_cast<double>(delivered) / attempted : 0.0;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    const auto& ts = system.stack(NodeId{i}).transport()->stats();
    point.retransmits += static_cast<double>(ts.retransmits);
    point.delivery_failures += static_cast<double>(ts.delivery_failures);
  }
  return point;
}

void print_point(double x, const ChaosPoint& p) {
  std::printf("  %7.3f | %6.1f %6.1f | %11.3f %10.2f | %8.2f %8.2f %9.2f\n",
              x, p.leader_faults, p.recoveries, p.mean_takeover_s,
              p.label_preserved, p.tracking_gap_s, p.distinct_labels,
              p.tracked_fraction);
}

void print_table_header(const char* x_name) {
  std::printf("  %7s | %6s %6s | %11s %10s | %8s %8s %9s\n", x_name, "crash",
              "recov", "takeover(s)", "label-keep", "gap(s)", "labels",
              "tracked");
}

constexpr double kHeartbeatPeriods[] = {0.125, 0.25, 0.5, 1.0};
constexpr double kCrashPeriods[] = {1.5, 3.0, 6.0, 12.0};
constexpr double kPartitionDowntimes[] = {0.5, 1.0, 2.0, 4.0};

}  // namespace

int main() {
  bench::print_header("Chaos sweep: recovery under injected faults",
                      "EnviroTrack §2 robustness claim, chaos-tested");
  const int seeds = bench::seeds_per_point(3);
  std::printf("(tank 3x12 grid, GE burst loss on, leader crash+reboot; "
              "%d seeds per point, %u sweep threads)\n",
              seeds, bench::sweep_threads());

  constexpr std::size_t kHbCount = std::size(kHeartbeatPeriods);
  constexpr std::size_t kRateCount = std::size(kCrashPeriods);
  const std::size_t hb_jobs = kHbCount * static_cast<std::size_t>(seeds);
  const std::size_t rate_jobs = kRateCount * static_cast<std::size_t>(seeds);

  // Sweep 1: recovery time vs heartbeat period (crash period fixed at 3 s,
  // downtime 1 s).
  const std::vector<ChaosPoint> hb_flat = bench::run_sweep<ChaosPoint>(
      hb_jobs, [&](std::size_t job) {
        const double period = kHeartbeatPeriods[job / seeds];
        const std::uint64_t seed = 100 + job % seeds;
        TankScenarioParams params = base_params(seed);
        params.group.heartbeat_period = Duration::seconds(period);
        return chaos_run(params, Duration::seconds(3), Duration::seconds(1));
      });

  std::printf("\n  recovery vs heartbeat period (crash every 3 s, 1 s "
              "downtime)\n");
  print_table_header("HB(s)");
  std::vector<double> takeover_curve, gap_curve_hb;
  for (std::size_t i = 0; i < kHbCount; ++i) {
    const std::vector<ChaosPoint> per_seed(
        hb_flat.begin() + i * seeds, hb_flat.begin() + (i + 1) * seeds);
    const ChaosPoint mean = average(per_seed);
    print_point(kHeartbeatPeriods[i], mean);
    takeover_curve.push_back(mean.mean_takeover_s);
    gap_curve_hb.push_back(mean.tracking_gap_s);
  }

  // Sweep 2: tracking quality vs fault rate (heartbeat fixed at 0.5 s).
  const std::vector<ChaosPoint> rate_flat = bench::run_sweep<ChaosPoint>(
      rate_jobs, [&](std::size_t job) {
        const double crash_period = kCrashPeriods[job / seeds];
        const std::uint64_t seed = 200 + job % seeds;
        TankScenarioParams params = base_params(seed);
        return chaos_run(params, Duration::seconds(crash_period),
                         Duration::seconds(1));
      });

  std::printf("\n  tracking vs fault rate (HB 0.5 s, 1 s downtime)\n");
  print_table_header("crash-T");
  std::vector<double> gap_curve_rate, label_curve;
  for (std::size_t i = 0; i < kRateCount; ++i) {
    const std::vector<ChaosPoint> per_seed(
        rate_flat.begin() + i * seeds, rate_flat.begin() + (i + 1) * seeds);
    const ChaosPoint mean = average(per_seed);
    print_point(kCrashPeriods[i], mean);
    gap_curve_rate.push_back(mean.tracking_gap_s);
    label_curve.push_back(mean.distinct_labels);
  }

  // Sweep 3: partition/heal chaos under the invariant oracle. Any
  // violation is a protocol bug, not a noisy data point: dump the oracle's
  // event trace and fail the bench.
  constexpr std::size_t kDownCount = std::size(kPartitionDowntimes);
  const std::size_t part_jobs = kDownCount * static_cast<std::size_t>(seeds);
  const std::vector<PartitionPoint> part_flat =
      bench::run_sweep<PartitionPoint>(part_jobs, [&](std::size_t job) {
        const double down = kPartitionDowntimes[job / seeds];
        const std::uint64_t seed = 300 + job % seeds;
        return partition_run(seed, Duration::seconds(down));
      });

  std::printf("\n  partition/heal chaos, invariant oracle attached "
              "(3 cycles, 1.5 s heal, fencing on)\n");
  std::printf("  %7s | %9s %8s | %8s %9s %7s\n", "down(s)", "violation",
              "checks", "takeover", "tracked", "fenced");
  bool invariants_hold = true;
  for (std::size_t i = 0; i < kDownCount; ++i) {
    PartitionPoint mean;
    for (std::size_t s = 0; s < static_cast<std::size_t>(seeds); ++s) {
      const PartitionPoint& p = part_flat[i * seeds + s];
      mean.violations += p.violations;
      mean.checks += p.checks;
      mean.takeovers += p.takeovers;
      mean.tracked_fraction += p.tracked_fraction;
      mean.fenced += p.fenced;
      if (!p.oracle_report.empty()) {
        invariants_hold = false;
        std::fprintf(stderr,
                     "\nINVARIANT VIOLATION (down=%.1fs seed=%llu):\n%s\n",
                     kPartitionDowntimes[i],
                     static_cast<unsigned long long>(300 + s),
                     p.oracle_report.c_str());
        // One machine-greppable line per violation: CI greps these into
        // the step summary so the violated invariant is named without
        // scraping the human-oriented trace above.
        for (const std::string& kind : p.violated_kinds) {
          std::fprintf(stderr,
                       "CHAOS_ORACLE_VIOLATION invariant=%s down=%.1f "
                       "seed=%llu\n",
                       kind.c_str(), kPartitionDowntimes[i],
                       static_cast<unsigned long long>(300 + s));
        }
      }
    }
    const double n = static_cast<double>(seeds);
    std::printf("  %7.1f | %9.1f %8.1f | %8.1f %9.2f %7.1f\n",
                kPartitionDowntimes[i], mean.violations / n, mean.checks / n,
                mean.takeovers / n, mean.tracked_fraction / n,
                mean.fenced / n);
  }

  // Sweep 4: end-to-end invoke delivery under ~20% burst loss, acked
  // transport vs the fire-and-forget ablation. Same world, same seeds —
  // the only difference is TransportConfig::reliable.
  const char* kTransportNames[] = {"fire-and-forget", "reliable"};
  const std::size_t del_jobs = 2 * static_cast<std::size_t>(seeds);
  const std::vector<DeliveryPoint> del_flat =
      bench::run_sweep<DeliveryPoint>(del_jobs, [&](std::size_t job) {
        const bool reliable = job / seeds == 1;
        const std::uint64_t seed = 400 + job % seeds;
        return delivery_run(seed, reliable);
      });

  std::printf("\n  invoke delivery under ~20%% GE burst loss "
              "(blob -> station, 2 hops, 160 invokes)\n");
  std::printf("  %16s | %8s %9s %9s | %7s %7s\n", "transport", "attempt",
              "delivered", "fraction", "retx", "fail");
  double mean_fraction[2] = {0.0, 0.0};
  for (std::size_t c = 0; c < 2; ++c) {
    DeliveryPoint mean;
    for (std::size_t s = 0; s < static_cast<std::size_t>(seeds); ++s) {
      const DeliveryPoint& p = del_flat[c * seeds + s];
      mean.attempted += p.attempted;
      mean.delivered += p.delivered;
      mean.delivered_fraction += p.delivered_fraction;
      mean.retransmits += p.retransmits;
      mean.delivery_failures += p.delivery_failures;
    }
    const double n = static_cast<double>(seeds);
    mean_fraction[c] = mean.delivered_fraction / n;
    std::printf("  %16s | %8.1f %9.1f %9.3f | %7.1f %7.1f\n",
                kTransportNames[c], mean.attempted / n, mean.delivered / n,
                mean_fraction[c], mean.retransmits / n,
                mean.delivery_failures / n);
  }

  if (const char* dir = std::getenv("ET_BENCH_CSV_DIR")) {
    const std::string path = std::string(dir) + "/chaos_sweep.csv";
    const std::string csv = et::metrics::series_csv(
        "hb_period_s",
        std::vector<double>(std::begin(kHeartbeatPeriods),
                            std::end(kHeartbeatPeriods)),
        {{"mean_takeover_s", takeover_curve},
         {"tracking_gap_s", gap_curve_hb}});
    if (et::metrics::write_file(path, csv)) {
      std::printf("\n  wrote %s\n", path.c_str());
    }
  }

  // Machine-readable per-seed rows; committed as BENCH_chaos.json so the
  // robustness trajectory survives repo re-anchors.
  if (const char* dir = std::getenv("ET_BENCH_JSON_DIR")) {
    metrics::JsonRows rows;
    char config[64];
    for (std::size_t i = 0; i < kHbCount; ++i) {
      for (std::size_t s = 0; s < static_cast<std::size_t>(seeds); ++s) {
        std::snprintf(config, sizeof(config), "hb=%g", kHeartbeatPeriods[i]);
        const ChaosPoint& p = hb_flat[i * seeds + s];
        rows.add(config, 100 + s, "mean_takeover_s", p.mean_takeover_s);
        rows.add(config, 100 + s, "tracking_gap_s", p.tracking_gap_s);
      }
    }
    for (std::size_t i = 0; i < kRateCount; ++i) {
      for (std::size_t s = 0; s < static_cast<std::size_t>(seeds); ++s) {
        std::snprintf(config, sizeof(config), "crash_period=%g",
                      kCrashPeriods[i]);
        const ChaosPoint& p = rate_flat[i * seeds + s];
        rows.add(config, 200 + s, "tracking_gap_s", p.tracking_gap_s);
        rows.add(config, 200 + s, "tracked_fraction", p.tracked_fraction);
      }
    }
    for (std::size_t i = 0; i < kDownCount; ++i) {
      for (std::size_t s = 0; s < static_cast<std::size_t>(seeds); ++s) {
        std::snprintf(config, sizeof(config), "partition_down=%g",
                      kPartitionDowntimes[i]);
        const PartitionPoint& p = part_flat[i * seeds + s];
        rows.add(config, 300 + s, "oracle_violations", p.violations);
        rows.add(config, 300 + s, "oracle_checks", p.checks);
        rows.add(config, 300 + s, "tracked_fraction", p.tracked_fraction);
      }
    }
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t s = 0; s < static_cast<std::size_t>(seeds); ++s) {
        std::snprintf(config, sizeof(config), "transport=%s",
                      c == 1 ? "reliable" : "fire_and_forget");
        const DeliveryPoint& p = del_flat[c * seeds + s];
        rows.add(config, 400 + s, "delivered_fraction",
                 p.delivered_fraction);
        rows.add(config, 400 + s, "retransmits", p.retransmits);
        rows.add(config, 400 + s, "delivery_failures", p.delivery_failures);
      }
    }
    const std::string path = std::string(dir) + "/BENCH_chaos.json";
    if (et::metrics::write_file(path, rows.render())) {
      std::printf("\n  wrote %s\n", path.c_str());
    }
  }

  std::printf(
      "\n  expected shape: mean takeover grows with the heartbeat period\n"
      "  (receive timer = 2.1 x HB bounds detection); faster crash cadence\n"
      "  widens the tracking gap and erodes label continuity.\n");

  // Acceptance gates (robustness PR): the oracle must stay clean through
  // every partition/heal cycle, and the acked transport must beat the
  // fire-and-forget ablation under burst loss.
  if (!invariants_hold) {
    std::fprintf(stderr, "\nFAIL: protocol invariants violated under "
                         "partition chaos (see traces above)\n");
    return 1;
  }
  if (mean_fraction[1] <= mean_fraction[0]) {
    std::fprintf(stderr,
                 "\nFAIL: reliable transport (%.3f) does not improve on "
                 "fire-and-forget (%.3f) under 20%% burst loss\n",
                 mean_fraction[1], mean_fraction[0]);
    return 1;
  }
  std::printf("\n  invariant oracle: clean across all partition chaos runs; "
              "acked delivery %.3f vs fire-and-forget %.3f\n",
              mean_fraction[1], mean_fraction[0]);
  return 0;
}
