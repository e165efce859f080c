/// Memory budget of an idle mote.
///
/// A large field is mostly motes that never sense anything (`sparse_100k`
/// in bench/perf: 100,000 motes, one tank), so what a mote costs before it
/// does anything sets the memory of the whole run. This binary replaces the
/// global `operator new`/`delete` with a counting pair and builds the
/// benchmark's sparse stack (one tracker type; directory and transport off)
/// on a 20,000-mote grid, once per kernel. It pins three things: `start()`
/// makes one allocation per mote (the middleware stack object), the heap a
/// mote holds after `start()` stays within 5% of the measured budget, and
/// idle polling allocates nothing per mote.
///
/// Requested bytes are counted through a size prefix on every block, not
/// read from malloc, so the numbers are the same under ASan/UBSan and TSan.
/// The replacement lives in its own test binary because it is global.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/system.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_allocations{0};

/// Keeps the user block at malloc's alignment.
constexpr std::size_t kPrefix = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
  void* block = std::malloc(size + kPrefix);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(block) + kPrefix;
}

void counted_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  void* block = static_cast<char*>(ptr) - kPrefix;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { counted_free(ptr); }
void operator delete[](void* ptr) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { counted_free(ptr); }

namespace et::core {
namespace {

constexpr std::size_t kRows = 100;
constexpr std::size_t kCols = 200;
constexpr double kMotes = static_cast<double>(kRows * kCols);

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}
std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

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

struct Footprint {
  double start_allocations_per_mote = 0.0;
  /// Heap requested from before the system's constructor to after start(),
  /// per mote: the mote, its stack, and its share of the shared tables.
  double bytes_per_mote = 0.0;
  /// Change of the live heap over 10 simulated seconds after start().
  std::int64_t polling_growth = 0;
};

/// Builds the sparse field with no target anywhere, so every mote stays
/// idle and only polls its sense predicate.
Footprint measure(const sim::KernelConfig& kernel) {
  sim::Simulator sim(11);
  env::Environment env(sim.make_rng("environment"));
  const env::Field field = env::Field::grid(kRows, kCols);

  SystemConfig config;
  config.kernel = kernel;
  config.cpu.queue_capacity = 12;
  config.middleware.enable_directory = false;
  config.middleware.enable_transport = false;
  config.middleware.group.suppression_radius = 2.0;
  config.middleware.group.wait_radius = 3.0;

  Footprint footprint;
  const std::int64_t before_system = live_bytes();
  EnviroTrackSystem system(sim, env, field, config);
  system.senses().add("target_sensed", sense_target("target"));
  const Rect bounds = field.bounds();
  system.add_context_type(tracker_spec(
      field.nearest({(bounds.min.x + bounds.max.x) / 2.0,
                     (bounds.min.y + bounds.max.y) / 2.0})));

  const std::uint64_t allocations_before_start = allocations();
  system.start();
  footprint.start_allocations_per_mote =
      static_cast<double>(allocations() - allocations_before_start) / kMotes;
  const std::int64_t after_start = live_bytes();
  footprint.bytes_per_mote =
      static_cast<double>(after_start - before_system) / kMotes;

  system.run_for(Duration::seconds(10));
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

TEST(IdleMoteMemory, SerialKernel) { expect_budget(measure({}), 1795.0); }

TEST(IdleMoteMemory, ParallelKernel) {
  sim::KernelConfig kernel;
  kernel.use_parallel_kernel = true;
  kernel.threads = 3;
  expect_budget(measure(kernel), 1742.6);
}

}  // namespace
}  // namespace et::core
