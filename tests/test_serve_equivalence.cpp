#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "metrics/invariants.hpp"
#include "scenario/tank.hpp"
#include "serve/ingest.hpp"
#include "serve/track_store.hpp"
#include "test_world.hpp"

/// The serving tier must be a deterministic function of the run, not of
/// the kernel: `latest`, `history`, and the ingest counters must answer
/// byte-identically whether the simulation ran on the serial kernel or the
/// parallel tiled kernel.
/// Ingest hands each decoded report to the master engine via
/// Simulator::post_op, so batching and fencing replay in canonical key
/// order regardless of which tile thread delivered the message.
namespace et::test {
namespace {

sim::KernelConfig serial_oracle() { return sim::KernelConfig{}; }

sim::KernelConfig parallel(int threads, int tiles_per_thread = 1) {
  sim::KernelConfig k;
  k.use_parallel_kernel = true;
  k.threads = threads;
  k.tiles_per_thread = tiles_per_thread;
  return k;
}

const std::vector<sim::KernelConfig>& parallel_grid() {
  static const std::vector<sim::KernelConfig> grid = {
      parallel(1, 1),
      parallel(2, 1),
      parallel(4, 1),
      parallel(4, 4),
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

void append_snapshot(std::ostringstream& os,
                     const serve::TrackSnapshot& s) {
  // Hexfloat: byte-identical means bit-identical positions, not
  // same-to-six-digits.
  os << "label=" << s.label.value() << " pos=(" << std::hexfloat
     << s.position.x << "," << s.position.y << std::defaultfloat
     << ") t=" << (s.time - Time::origin()).to_micros()
     << " epoch=" << s.epoch << " seq=" << s.seq << "\n";
}

/// Every observable of the serving tier after a run: per-label latest
/// snapshot, full history window, and the ingest counters.
std::string digest_store(const serve::ShardedTrackStore& store,
                         const serve::TrackIngest& ingest) {
  std::ostringstream os;
  const auto ingest_stats = ingest.stats();
  os << "ingest seen=" << ingest_stats.reports_seen
     << " stale=" << ingest_stats.stale_discarded
     << " batches=" << ingest_stats.batches_flushed
     << " stored=" << ingest_stats.reports_stored << "\n";
  const auto store_stats = store.stats();
  os << "store reports=" << store_stats.reports_applied
     << " evicted=" << store_stats.points_evicted
     << " labels=" << store_stats.labels << "\n";
  // tracks_in_region over an everything-rect enumerates labels sorted.
  const Rect everything{{-1e9, -1e9}, {1e9, 1e9}};
  for (const serve::TrackSnapshot& snap :
       store.tracks_in_region(everything)) {
    os << "latest ";
    append_snapshot(os, snap);
    for (const serve::TrackSnapshot& point :
         store.history(snap.label, Duration::seconds(3600))) {
      os << "  point ";
      append_snapshot(os, point);
    }
  }
  return os.str();
}

std::string run_tank_with_store(const sim::KernelConfig& kernel) {
  scenario::TankScenarioParams params;
  params.rows = 3;
  params.cols = 8;
  params.speed_hops_per_s = 0.75;
  params.report_period = Duration::millis(500);
  params.seed = 42;
  params.kernel = kernel;
  scenario::TankScenario scenario(params);
  serve::ShardedTrackStore store;
  serve::IngestConfig config;
  config.max_batch = 4;  // small batches: exercise both flush paths
  serve::TrackIngest ingest(scenario.system(), NodeId{0}, store, config);
  scenario.run();
  ingest.flush();
  return digest_store(store, ingest);
}

TEST(ServeEquivalence, TankStoreBitExactAcrossKernels) {
  const std::string oracle = run_tank_with_store(serial_oracle());
  EXPECT_NE(oracle.find("latest "), std::string::npos)
      << "the run must actually serve at least one track:\n" << oracle;
  for (const sim::KernelConfig& k : parallel_grid()) {
    EXPECT_EQ(run_tank_with_store(k), oracle) << describe(k);
  }
}

/// Chaos variant: crashes and a partition while the serving tier ingests.
/// The protocol-invariant oracle must stay clean with the store attached,
/// and the served answers must still be kernel-independent.
std::string run_chaos_with_store(const sim::KernelConfig& kernel,
                                 bool& oracle_ok, std::string& oracle_report) {
  TestWorld::Options options;
  options.rows = 3;
  options.cols = 10;
  options.enable_transport = true;
  options.kernel = kernel;
  options.seed = 5;
  options.mutate_spec = [](core::ContextTypeSpec& spec) {
    core::ObjectSpec reporter;
    reporter.name = "r";
    core::MethodSpec track;
    track.name = "track";
    track.invocation.kind = core::InvocationSpec::Kind::kTimer;
    track.invocation.period = Duration::millis(500);
    track.body = [](core::TrackingContext& ctx) {
      if (auto where = ctx.read_vector("where")) {
        ctx.send_to_node(NodeId{0}, "track", {where->x, where->y});
      }
    };
    reporter.methods.push_back(std::move(track));
    spec.objects.push_back(std::move(reporter));
  };
  TestWorld world(options);
  metrics::InvariantOracle invariants(world.system());
  fault::FaultInjector injector(world.system());
  serve::ShardedTrackStore store;
  serve::TrackIngest ingest(world.system(), NodeId{0}, store);

  world.add_blob({4.5, 1.0}, 1.8);
  world.run(3);

  fault::FaultPlan plan;
  const Time t0 = world.sim().now();
  plan.crash_for(t0 + Duration::seconds(1), NodeId{13},
                 Duration::seconds(3));
  plan.crash_for(t0 + Duration::seconds(2), NodeId{14},
                 Duration::seconds(3));
  std::vector<NodeId> island;
  for (std::size_t i = 0; i < 30; ++i) {
    if (i % 10 >= 5) island.push_back(NodeId{i});
  }
  plan.partition_start(t0 + Duration::seconds(4),
                       fault::PartitionSpec{{island}});
  plan.partition_heal(t0 + Duration::seconds(8));
  injector.schedule(plan);
  world.run(12);
  ingest.flush();

  oracle_ok = invariants.ok();
  oracle_report = invariants.report();
  return digest_store(store, ingest);
}

TEST(ServeEquivalence, ChaosStoreBitExactAndInvariantClean) {
  bool ok = false;
  std::string report;
  const std::string oracle = run_chaos_with_store(serial_oracle(), ok, report);
  EXPECT_TRUE(ok) << report;
  for (const sim::KernelConfig& k : parallel_grid()) {
    EXPECT_EQ(run_chaos_with_store(k, ok, report), oracle) << describe(k);
    EXPECT_TRUE(ok) << describe(k) << "\n" << report;
  }
}

}  // namespace
}  // namespace et::test
