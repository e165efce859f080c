/// Memory budget of an idle mote, and what first activity allocates.
///
/// A large field is mostly motes that never sense anything (`sparse_100k`
/// in bench/perf: 100,000 motes, one tank), so what a mote costs before it
/// does anything sets the memory of the whole run. This binary replaces the
/// global `operator new`/`delete` with a counting pair
/// (tests/counting_allocator.hpp) and builds the benchmark's sparse stack
/// (one tracker type; directory and transport off) on a 20,000-mote grid.
/// It pins four things: `start()` makes one allocation per mote (the
/// middleware stack object), the heap a mote holds after `start()` stays
/// within 5% of the measured budget on either kernel, idle polling
/// allocates nothing per mote, and a tank crossing the grid allocates
/// active state (radio endpoint, routing and group blocks) only on motes
/// that had radio traffic.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/system.hpp"
#include "counting_allocator.hpp"
#include "env/trajectory.hpp"

namespace et::core {
namespace {

using et::testing::allocations;
using et::testing::live_bytes;

constexpr std::size_t kRows = 100;
constexpr std::size_t kCols = 200;
constexpr double kMotes = static_cast<double>(kRows * kCols);

/// The bench/perf tracker: average position (critical mass 2, freshness
/// 1 s), reported to the base station every second.
ContextTypeSpec tracker_spec(NodeId base) {
  ContextTypeSpec tracker;
  tracker.name = "tracker";
  tracker.activation = "target_sensed";
  tracker.variables.push_back(
      AggregateVarSpec{"location", "avg", "position", Duration::seconds(1), 2});
  MethodSpec report;
  report.name = "report";
  report.invocation.kind = InvocationSpec::Kind::kTimer;
  report.invocation.period = Duration::seconds(1);
  report.body = [base](TrackingContext& ctx) {
    if (auto location = ctx.read_vector("location")) {
      ctx.send_to_node(base, "track", {location->x, location->y});
    }
  };
  ObjectSpec reporter;
  reporter.name = "reporter";
  reporter.methods.push_back(std::move(report));
  tracker.objects.push_back(std::move(reporter));
  return tracker;
}

/// The sparse field on the test grid. With `tank`, one target of sensing
/// radius 1 heads east along the middle row at 1 hop/s from 40 hops west
/// of the base station (the field's centre), as in bench/perf's
/// sparse_100k; without it every mote stays idle and only polls.
struct SparseField {
  SparseField(const sim::KernelConfig& kernel, bool tank)
      : sim(11),
        env(sim.make_rng("environment")),
        field(env::Field::grid(kRows, kCols)) {
    const Rect bounds = field.bounds();
    const Vec2 centre{(bounds.min.x + bounds.max.x) / 2.0,
                      (bounds.min.y + bounds.max.y) / 2.0};
    if (tank) {
      env::Target target;
      target.type = "target";
      target.trajectory = std::make_unique<env::LinearTrajectory>(
          Vec2{centre.x - 40.0, static_cast<double>(kRows / 2)},
          Vec2{bounds.max.x + 1.5, static_cast<double>(kRows / 2)}, 1.0);
      target.radius = env::RadiusProfile::constant(1.0);
      env.add_target(std::move(target));
    }

    SystemConfig config;
    config.kernel = kernel;
    config.cpu.queue_capacity = 12;
    config.middleware.enable_directory = false;
    config.middleware.enable_transport = false;
    config.middleware.group.suppression_radius = 2.0;
    config.middleware.group.wait_radius = 3.0;

    before_system = live_bytes();
    system = std::make_unique<EnviroTrackSystem>(sim, env, field, config);
    system->senses().add("target_sensed", sense_target("target"));
    system->add_context_type(tracker_spec(field.nearest(centre)));
  }

  sim::Simulator sim;
  env::Environment env;
  env::Field field;
  std::int64_t before_system = 0;
  std::unique_ptr<EnviroTrackSystem> system;
};

struct Footprint {
  double start_allocations_per_mote = 0.0;
  /// Heap requested from before the system's constructor to after start(),
  /// per mote: the mote, its stack, and its share of the shared tables.
  double bytes_per_mote = 0.0;
  /// Change of the live heap over 10 simulated seconds after start().
  std::int64_t polling_growth = 0;
};

Footprint measure(const sim::KernelConfig& kernel) {
  SparseField world(kernel, /*tank=*/false);
  Footprint footprint;
  const std::uint64_t allocations_before_start = allocations();
  world.system->start();
  footprint.start_allocations_per_mote =
      static_cast<double>(allocations() - allocations_before_start) / kMotes;
  const std::int64_t after_start = live_bytes();
  footprint.bytes_per_mote =
      static_cast<double>(after_start - world.before_system) / kMotes;

  world.system->run_for(Duration::seconds(10));
  footprint.polling_growth = live_bytes() - after_start;
  std::printf("allocations per mote in start(): %.4f\n"
              "heap per idle mote after start(): %.1f B\n"
              "heap growth over 10 s of idle polling: %lld B\n",
              footprint.start_allocations_per_mote, footprint.bytes_per_mote,
              static_cast<long long>(footprint.polling_growth));
  return footprint;
}

/// `measured_bytes_per_mote` is what this layout requests: the mote (as
/// constructed by the system), its stack object, and its share of the
/// medium's tables, the sequence table and the engines' event slabs.
void expect_budget(const Footprint& footprint,
                   double measured_bytes_per_mote) {
  // One allocation per mote (the stack object); the slack covers the
  // amortised growth of each engine's event slab and heap.
  EXPECT_LE(footprint.start_allocations_per_mote, 1.01);
  EXPECT_LE(footprint.bytes_per_mote, 1.05 * measured_bytes_per_mote);
  // Polling engages no mote. The event queues' shared free-slot lists
  // still grow to the CPU-task watermark (hundreds of bytes in all), so
  // the bound is one byte per mote: any per-mote allocation exceeds it.
  EXPECT_LT(static_cast<double>(footprint.polling_growth), kMotes);
}

TEST(IdleMoteMemory, SerialKernel) {
  const Footprint footprint = measure({});
  expect_budget(footprint, 767.3);
  // The target this layout was built for.
  EXPECT_LE(footprint.bytes_per_mote, 1000.0);
}

TEST(IdleMoteMemory, ParallelKernel) {
  sim::KernelConfig kernel;
  kernel.use_parallel_kernel = true;
  kernel.threads = 3;
  expect_budget(measure(kernel), 774.2);
}

/// Runs the tank field for 20 simulated seconds and checks that active
/// blocks appear only where frames were: on a mote that sent one, or in
/// radio range of one that did.
void expect_activity_follows_traffic(const sim::KernelConfig& kernel) {
  SparseField world(kernel, /*tank=*/true);
  EnviroTrackSystem& system = *world.system;
  system.start();
  const std::int64_t after_start = live_bytes();
  system.run_for(Duration::seconds(20));
  const std::int64_t growth = live_bytes() - after_start;

  radio::Medium& medium = system.medium();
  const std::size_t n = system.node_count();
  std::vector<bool> traffic(n, false);
  std::size_t senders = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id{i};
    if (medium.endpoint_stats(id).frames_sent == 0) continue;
    ++senders;
    traffic[i] = true;
    for (NodeId neighbor : medium.neighbors(id)) {
      traffic[neighbor.value()] = true;
    }
  }
  std::size_t with_traffic = 0;
  std::size_t active = 0;
  std::size_t stray = 0;
  std::uint64_t labels = 0;
  std::uint64_t routed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id{i};
    MiddlewareStack& stack = system.stack(id);
    labels += stack.groups().stats().labels_created;
    routed += stack.routing().stats().originated;
    const bool allocated = medium.endpoint_active(id) ||
                           stack.routing().active() || stack.groups().active();
    with_traffic += traffic[i] ? 1 : 0;
    active += allocated ? 1 : 0;
    if (allocated && !traffic[i]) ++stray;
  }
  std::printf("senders %zu, motes with traffic %zu, with active blocks %zu, "
              "heap growth over 20 s: %lld B\n",
              senders, with_traffic, active,
              static_cast<long long>(growth));

  // The tank was tracked: a label formed and its leaders reported to the
  // base station over multi-hop routes.
  EXPECT_GT(labels, 0u);
  EXPECT_GT(routed, 0u);
  EXPECT_GT(senders, 10u);
  EXPECT_GT(active, 0u);
  // No mote out of radio range of every sender allocated anything.
  EXPECT_EQ(stray, 0u);
  // Activity stays local: a few percent of the field at most.
  EXPECT_LT(static_cast<double>(active), 0.05 * kMotes);
  // Motes the tank never reached stayed at their idle layout: the run's
  // growth is what the active motes allocated (1.5 KB each on average here,
  // shared event-slab growth included). Ten bytes more on every mote of
  // the field would break this bound.
  EXPECT_LT(static_cast<double>(growth),
            static_cast<double>(active) * 2048.0);
}

TEST(IdleMoteMemory, TankCrossingAllocatesOnlyWhereTrafficIs) {
  expect_activity_follows_traffic({});
}

TEST(IdleMoteMemory, TankCrossingOnParallelKernel) {
  sim::KernelConfig kernel;
  kernel.use_parallel_kernel = true;
  kernel.threads = 3;
  expect_activity_follows_traffic(kernel);
}

}  // namespace
}  // namespace et::core
