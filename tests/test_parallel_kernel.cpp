#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/invariants.hpp"
#include "scenario/fire.hpp"
#include "scenario/tank.hpp"
#include "scenario/units.hpp"
#include "sim/parallel.hpp"
#include "test_world.hpp"

/// Parallel-kernel equivalence suite.
///
/// The contract under test: the serial kernel is a bit-exact oracle for
/// the tiled parallel engine — same seed, same
/// scenario, same per-mote event order, same metrics — for every thread
/// count and tile granularity. Each test digests all deterministic
/// observables of a run into one string and compares it byte for byte.
namespace et::test {
namespace {

using scenario::TankRunResult;

sim::KernelConfig serial_oracle() { return sim::KernelConfig{}; }

sim::KernelConfig parallel(int threads, int tiles_per_thread = 1) {
  sim::KernelConfig k;
  k.use_parallel_kernel = true;
  k.threads = threads;
  k.tiles_per_thread = tiles_per_thread;
  return k;
}

/// The (threads, tiles-per-thread) grid every equivalence test sweeps.
const std::vector<sim::KernelConfig>& parallel_grid() {
  static const std::vector<sim::KernelConfig> grid = {
      parallel(1, 1),  // single worker: exercises windowing alone
      parallel(2, 1),
      parallel(4, 1),
      parallel(4, 4),  // fine tiles: heavy cross-tile traffic
  };
  return grid;
}

std::string describe(const sim::KernelConfig& k) {
  if (!k.use_parallel_kernel) return "serial";
  std::ostringstream os;
  os << "parallel(threads=" << k.threads
     << ", tiles_per_thread=" << k.tiles_per_thread << ")";
  return os.str();
}

void append_medium(std::ostringstream& os, const radio::MediumStats& m) {
  os << "medium bits=" << m.bits_sent << " airtime=" << m.airtime.to_micros();
  const radio::TypeStats t = m.totals();
  os << " offered=" << t.offered << " transmitted=" << t.transmitted
     << " mac_dropped=" << t.mac_dropped << " lost=" << t.lost
     << " pair_attempts=" << t.pair_attempts
     << " pair_delivered=" << t.pair_delivered
     << " coll=" << t.pair_lost_collision << " rand=" << t.pair_lost_random
     << " burst=" << t.pair_lost_burst
     << " part=" << t.pair_blocked_partition << "\n";
}

void append_events(std::ostringstream& os, const metrics::EventLog& log) {
  os << "events total=" << log.total() << "\n";
  for (const core::GroupEvent& e : log.events()) {
    os << e.to_string() << "\n";
  }
}

/// Every deterministic observable of a tank run (excludes wall-clock).
std::string digest(const TankRunResult& r) {
  std::ostringstream os;
  os << "tracking handovers=" << r.tracking.successful_handovers << "/"
     << r.tracking.failed_handovers
     << " labels=" << r.tracking.distinct_labels
     << " replicated=" << r.tracking.replicated_samples
     << " tracked=" << r.tracking.tracked_samples << "/"
     << r.tracking.total_samples
     << " latency=" << r.tracking.detection_latency.to_micros() << "\n";
  append_medium(os, r.medium);
  os << "groups hb=" << r.groups.heartbeats_sent << "/"
     << r.groups.heartbeats_relayed << " reports=" << r.groups.reports_sent
     << "/" << r.groups.reports_received
     << " labels=" << r.groups.labels_created
     << " takeovers=" << r.groups.takeovers
     << " relinquishes=" << r.groups.relinquishes
     << " yields=" << r.groups.yields
     << " suppressions=" << r.groups.suppressions
     << " joins=" << r.groups.joins << "\n";
  os << "cpu posted=" << r.cpu.posted << " executed=" << r.cpu.executed
     << " dropped=" << r.cpu.dropped << " busy=" << r.cpu.busy.to_micros()
     << "\n";
  os << "track points=" << r.track.size() << " labels=" << r.track_labels
     << "\n";
  for (const metrics::TrackPoint& p : r.track) {
    os << "  t=" << (p.time - Time::origin()).to_micros()
       << " label=" << p.label.value() << " reported=(" << p.reported.x << ","
       << p.reported.y << ") actual=(" << p.actual.x << "," << p.actual.y
       << ")\n";
  }
  os << "elapsed=" << r.elapsed.to_micros() << "\n";
  return os.str();
}

std::string run_tank(const scenario::TankScenarioParams& base,
                     const sim::KernelConfig& kernel) {
  scenario::TankScenarioParams params = base;
  params.kernel = kernel;
  scenario::TankScenario scenario(params);
  const TankRunResult result = scenario.run();
  std::ostringstream os;
  os << digest(result);
  append_events(os, scenario.events());
  return os.str();
}

TEST(ParallelKernel, TankBitExactAcrossThreadsAndTiles) {
  scenario::TankScenarioParams params;
  params.seed = 42;
  const std::string oracle = run_tank(params, serial_oracle());
  for (const sim::KernelConfig& k : parallel_grid()) {
    EXPECT_EQ(run_tank(params, k), oracle) << describe(k);
  }
}

TEST(ParallelKernel, TankWithLossyRadioBitExact) {
  // Collisions, random loss, and burst loss exercise the per-mote RNG
  // forks; tile placement must not perturb any draw.
  scenario::TankScenarioParams params;
  params.seed = 7;
  params.radio.loss_probability = 0.05;
  params.radio.model_collisions = true;
  params.radio.carrier_sense_miss = 0.1;
  const std::string oracle = run_tank(params, serial_oracle());
  for (const sim::KernelConfig& k : parallel_grid()) {
    EXPECT_EQ(run_tank(params, k), oracle) << describe(k);
  }
}

TEST(ParallelKernel, PursuitBitExact) {
  // The pursuit configuration: fast target, directory + transport on, and
  // background cross-traffic saturating the channel.
  scenario::TankScenarioParams params;
  params.seed = 99;
  params.speed_hops_per_s = scenario::kmh_to_hops_per_s(scenario::kTankFastKmh);
  params.enable_directory = true;
  params.enable_transport = true;
  params.cross_traffic = scenario::CrossTrafficConfig{};
  const std::string oracle = run_tank(params, serial_oracle());
  for (const sim::KernelConfig& k : parallel_grid()) {
    EXPECT_EQ(run_tank(params, k), oracle) << describe(k);
  }
}

std::string run_fire(const sim::KernelConfig& kernel) {
  scenario::FireScenarioParams params;
  params.seed = 11;
  params.kernel = kernel;
  scenario::FireScenario scenario(params);
  scenario.ignite({3.0, 3.0}, Time::origin() + Duration::seconds(1));
  scenario.ignite({11.0, 10.0}, Time::origin() + Duration::seconds(4));
  scenario.run(12);
  std::ostringstream os;
  os << "alarms=" << scenario.alarms().size() << "\n";
  for (const scenario::FireEvent& a : scenario.alarms()) {
    os << "  t=" << (a.time - Time::origin()).to_micros()
       << " label=" << a.label.value() << " seat=(" << a.seat.x << ","
       << a.seat.y << ") intensity=" << a.intensity << "\n";
  }
  const auto entries = scenario.where_are_the_fires(NodeId{0});
  os << "directory=" << entries.size() << "\n";
  for (const core::DirectoryEntry& e : entries) {
    os << "  label=" << e.label.value() << " leader=" << e.leader.value()
       << " loc=(" << e.location.x << "," << e.location.y
       << ") updated=" << (e.updated - Time::origin()).to_micros()
       << " epoch=" << e.epoch << "\n";
  }
  append_medium(os, scenario.system().medium().stats());
  append_events(os, scenario.events());
  return os.str();
}

TEST(ParallelKernel, FireScenarioBitExact) {
  const std::string oracle = run_fire(serial_oracle());
  for (const sim::KernelConfig& k : parallel_grid()) {
    EXPECT_EQ(run_fire(k), oracle) << describe(k);
  }
}

/// Simultaneous timestamps: N motes arm a timer for the *same* instant
/// (registered in descending mote order); canonical keys must fire them in
/// ascending mote-rank order on every kernel, with the op journal
/// preserving that order across tiles.
std::vector<std::size_t> same_instant_firing_order(
    const sim::KernelConfig& kernel) {
  TestWorld::Options options;
  options.kernel = kernel;
  TestWorld world(options);
  std::vector<std::size_t> order;
  const std::size_t n = world.system().node_count();
  for (std::size_t i = n; i-- > 0;) {
    auto& mote = world.system().network().mote(NodeId{i});
    sim::ExecutingOwnerScope scope(world.sim(),
                                   static_cast<std::uint32_t>(i));
    mote.after(Duration::seconds(1), [&world, &order, i] {
      world.sim().post_op([&order, i] { order.push_back(i); });
    });
  }
  world.run(2);
  return order;
}

TEST(ParallelKernel, SimultaneousEventsKeepSerialTieBreakOrder) {
  const std::vector<std::size_t> oracle =
      same_instant_firing_order(serial_oracle());
  ASSERT_EQ(oracle.size(), TestWorld::Options{}.rows * TestWorld::Options{}.cols);
  // The serial tie-break is ascending mote rank, not registration order.
  for (std::size_t i = 0; i + 1 < oracle.size(); ++i) {
    EXPECT_LT(oracle[i], oracle[i + 1]);
  }
  for (const sim::KernelConfig& k : parallel_grid()) {
    EXPECT_EQ(same_instant_firing_order(k), oracle) << describe(k);
  }
}

/// Chaos under the parallel kernel: crashes, reboots, and a partition with
/// the protocol-invariant oracle attached. The violation report, fault
/// record stream, and event log must match the serial oracle exactly.
std::string run_chaos(const sim::KernelConfig& kernel,
                      const std::function<void(TestWorld&)>& inspect = {},
                      bool force_fanout = false) {
  TestWorld::Options options;
  options.rows = 3;
  options.cols = 10;
  options.enable_transport = true;
  options.kernel = kernel;
  options.seed = 5;
  if (force_fanout) options.fanout_min_receivers = 1;
  TestWorld world(options);
  metrics::InvariantOracle oracle(world.system());
  fault::FaultInjector injector(world.system());

  world.add_blob({4.5, 1.0}, 1.8);
  world.run(3);

  fault::FaultPlan plan;
  const Time t0 = world.sim().now();
  plan.crash_for(t0 + Duration::seconds(1), NodeId{13}, Duration::seconds(3));
  plan.crash_for(t0 + Duration::seconds(2), NodeId{14}, Duration::seconds(3));
  std::vector<NodeId> island;
  for (std::size_t i = 0; i < 30; ++i) {
    if (i % 10 >= 5) island.push_back(NodeId{i});
  }
  plan.partition_start(t0 + Duration::seconds(4),
                       fault::PartitionSpec{{island}});
  plan.partition_heal(t0 + Duration::seconds(8));
  injector.schedule(plan);
  world.run(12);

  std::ostringstream os;
  os << "checks=" << oracle.checks_run() << "\n" << oracle.report() << "\n";
  os << "faults=" << injector.records().size() << "\n";
  for (const fault::FaultRecord& r : injector.records()) {
    os << "  t=" << (r.at - Time::origin()).to_micros() << " "
       << fault::fault_kind_name(r.kind) << " node="
       << (r.node.is_valid() ? static_cast<long long>(r.node.value()) : -1)
       << " was_leader=" << r.was_leader << "\n";
  }
  append_medium(os, world.system().medium().stats());
  append_events(os, world.events());
  if (inspect) inspect(world);
  return os.str();
}

TEST(ParallelKernel, ChaosRunWithInvariantOracleBitExact) {
  const std::string oracle = run_chaos(serial_oracle());
  for (const sim::KernelConfig& k : parallel_grid()) {
    EXPECT_EQ(run_chaos(k), oracle) << describe(k);
  }
}

TEST(ParallelKernel, CanonicalSerialStillTracks) {
  // Under the canonical order's handoff latencies and deferred channel
  // ops, the middleware must still meet the paper's trackability
  // criterion on the serial kernel.
  scenario::TankScenarioParams params;
  params.seed = 1;
  params.kernel = serial_oracle();
  const TankRunResult result = scenario::run_tank_scenario(params);
  EXPECT_TRUE(result.trackable())
      << "labels=" << result.tracking.distinct_labels
      << " tracked=" << result.tracking.tracked_fraction();
}

/// Wide-window suite: the adaptive per-tile planner (tile-pair lookahead
/// matrix + pending-send/channel constraints) against the serial oracle.
TEST(WideWindow, ChaosLookaheadAdmitsNoLateReceptions) {
  // The windowing proof, stated as a runtime property: once a tile's
  // window bound is published, no cross-tile effect (reception handoff,
  // replayed op) may be inserted at or before it. Every engine counts such
  // insertions; a wide-window chaos run — crashes, reboots, a partition,
  // world events cutting windows — must end with all counters at zero, on
  // every thread/tile grid.
  for (const sim::KernelConfig& k : parallel_grid()) {
    run_chaos(k, [&](TestWorld& world) {
      sim::ParallelKernel* kernel = world.system().kernel();
      ASSERT_NE(kernel, nullptr) << describe(k);
      EXPECT_GT(kernel->stats().windows, 0u) << describe(k);
      for (sim::Simulator* engine : kernel->all_sims()) {
        EXPECT_EQ(engine->late_insertions(), 0u) << describe(k);
      }
    });
  }
  // The serial kernel trivially satisfies the same property.
  run_chaos(serial_oracle(), [](TestWorld& world) {
    EXPECT_EQ(world.sim().late_insertions(), 0u);
  });
}

/// Parallel delivery fan-out: broadcasts sharded across the worker pool by
/// receiving tile, with per-receiver RNG streams and pre-assigned
/// reception keys.
TEST(ParallelFanout, ForcedFanoutBitExactUnderLoss) {
  // fanout_min_receivers = 1 routes every delivery through the fan-out
  // executor; loss + collisions + bursts exercise the per-receiver RNG
  // forks, whose draws must not depend on sampling order or tile layout.
  scenario::TankScenarioParams params;
  params.seed = 7;
  params.radio.fanout_min_receivers = 1;
  params.radio.loss_probability = 0.05;
  params.radio.model_collisions = true;
  params.radio.carrier_sense_miss = 0.1;
  params.radio.burst_loss.enabled = true;
  const std::string oracle = run_tank(params, serial_oracle());
  for (const sim::KernelConfig& k : parallel_grid()) {
    EXPECT_EQ(run_tank(params, k), oracle) << describe(k);
  }
}

TEST(ParallelFanout, ForcedFanoutChaosBitExact) {
  // Fan-out under faults: partitions toggle per-pair blocking mid-run; the
  // sharded attempt loop must observe exactly the serial partition state.
  const std::string oracle =
      run_chaos(serial_oracle(), {}, /*force_fanout=*/true);
  for (const sim::KernelConfig& k : parallel_grid()) {
    EXPECT_EQ(run_chaos(k, {}, /*force_fanout=*/true), oracle)
        << describe(k);
  }
}

TEST(ParallelFanout, ForcedFanoutPopulatesTelemetry) {
  scenario::TankScenarioParams params;
  params.seed = 7;
  params.kernel = parallel(2, 2);
  params.radio.fanout_min_receivers = 1;
  scenario::TankScenario scenario(params);
  scenario.run();
  sim::ParallelKernel* kernel = scenario.system().kernel();
  ASSERT_NE(kernel, nullptr);
  const sim::ParallelKernelStats& stats = kernel->stats();
  EXPECT_GT(stats.fanout_batches, 0u)
      << "with the threshold at 1 every multi-candidate broadcast must "
         "dispatch a fan-out batch";
  EXPECT_GE(stats.fanout_receivers, stats.fanout_batches)
      << "each batch carries at least one receiver attempt";
}

/// Kernel telemetry: the counters bench/perf publishes as sim.kernel.*
/// metrics must be internally consistent and actually measure the
/// windowing.
TEST(KernelTelemetry, WindowAccountingIsConsistent) {
  scenario::TankScenarioParams params;
  params.seed = 42;
  params.kernel = parallel(2, 1);
  scenario::TankScenario scenario(params);
  scenario.run();
  const sim::ParallelKernelStats& stats =
      scenario.system().kernel()->stats();
  EXPECT_GT(stats.windows, 0u);
  EXPECT_EQ(stats.windows,
            stats.windows_cut_world + stats.windows_full + stats.windows_final)
      << "every window is cut at a world event, a planner bound, or the "
         "deadline";
  EXPECT_GT(stats.window_width_total, Duration::zero());
  EXPECT_GT(stats.mean_window_width_us(), 0.0);
  EXPECT_GE(stats.window_width_max.to_seconds() * 1e6,
            stats.mean_window_width_us());
  EXPECT_GE(stats.serial_fraction(), 0.0);
  EXPECT_LE(stats.serial_fraction(), 1.0);
}

TEST(KernelTelemetry, WindowsAreWiderThanMinAirtime) {
  // The point of the adaptive planner: windows wider than the minimum
  // frame airtime δ, the fixed lookahead a planner-free kernel would cut
  // every window at. Both the mean and the widest executed window must
  // exceed it.
  scenario::TankScenarioParams params;
  params.seed = 42;
  params.kernel = parallel(2, 1);
  scenario::TankScenario scenario(params);
  scenario.run();
  const sim::ParallelKernelStats& stats =
      scenario.system().kernel()->stats();
  const Duration delta = scenario.system().medium().min_airtime();
  EXPECT_GT(stats.mean_window_width_us(), delta.to_seconds() * 1e6);
  EXPECT_GT(stats.window_width_max, delta);
}

TEST(ParallelKernel, LookaheadDerivedFromRadioConstants) {
  // The conservative window is the minimum frame airtime: header-only
  // frame at the configured bitrate. Guard the derivation — a zero or
  // hardcoded lookahead would silently break the windowing proof.
  sim::Simulator sim(1);
  radio::Medium medium(sim, radio::RadioConfig{});
  const radio::RadioConfig defaults;
  const auto expected_us = static_cast<std::int64_t>(
      radio::Medium::kHeaderBytes * 8 * 1e6 / defaults.bitrate_bps);
  EXPECT_GT(medium.min_airtime(), Duration::zero());
  EXPECT_EQ(medium.min_airtime().to_micros(), expected_us);
}

}  // namespace
}  // namespace et::test
