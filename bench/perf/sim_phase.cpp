/// Simulation phases: a mote field built directly on the public
/// EnviroTrackSystem API, so every timer sits at a boundary the benchmark
/// owns (constructor, start(), one run_until per simulated second, the
/// registered sense predicate, context method bodies). Everything else is
/// read from the layers' stats() accessors.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench/bench_util.hpp"
#include "core/system.hpp"
#include "etbench.hpp"
#include "fault/fault_injector.hpp"
#include "metrics/invariants.hpp"
#include "probes.hpp"
#include "serve/ingest.hpp"
#include "stats.hpp"

namespace et::perf {

namespace {

struct WorldSpec {
  const char* name;
  std::size_t rows;
  std::size_t cols;
  /// 0: one tank heading east along the middle row; otherwise this many
  /// seeded random walkers (a multiple of kCellColumns), each confined to
  /// its own cell of the field.
  std::size_t walkers;
  double speed_hops_per_s;
  double sensing_radius;
  bool burst_loss;
  /// Crash the heaviest leader every 10 s and reboot it 2 s later.
  bool harass_leaders;
  std::size_t cpu_queue;
  Duration report_period;
  /// Simulated seconds run before timing starts.
  int warmup_s;
  /// Timed simulated seconds. Every run on every kernel simulates exactly
  /// this span (times --span-scale), whatever the host's speed.
  int timed_s;
};

// sparse_100k: 99.9% idle motes; host time is sense polling. Its tank
// moves at 1 hop/s: at 5 hops/s a mote senses it for 0.4 s, less than the
// 0.7 s member report period, so no label reaches critical mass and the
// field never reports. dense_6k: groups, routing, ingest and fault
// recovery all busy under burst loss and leader crashes.
const WorldSpec kWorlds[] = {
    {"sparse_100k", 250, 400, 0, 1.0, 1.0, false, false, 12,
     Duration::seconds(1), 2, 40},
    {"dense_6k", 40, 150, 32, 1.0, 1.0, true, true, 64, Duration::seconds(1),
     10, 200},
};

// Walkers live in a grid of cells this many cells wide, kept this far from
// the cell edges: groups of neighbouring walkers never overlap, so a label
// never has to follow two identical targets.
constexpr std::size_t kCellColumns = 16;
constexpr double kCellMargin = 2.5;

// The tank starts this many hops west of the base station (the field's
// centre) and heads east past it, so its reports cross tens of hops, not
// the half of the field a tank entering at the edge would need.
constexpr double kTankLeadHops = 40.0;

const WorldSpec& find_world(const std::string& name) {
  for (const WorldSpec& spec : kWorlds) {
    if (name == spec.name) return spec;
  }
  throw std::invalid_argument("unknown world '" + name + "'");
}

core::SensePredicate timed_sense(core::SensePredicate inner) {
  return [inner = std::move(inner)](const node::Mote& mote) {
    LayerCounters& counters = thread_counters();
    const std::int64_t start = now_ns();
    const bool sensed = inner(mote);
    counters.sense_ns += static_cast<std::uint64_t>(now_ns() - start);
    counters.sense_calls++;
    counters.sense_true += sensed ? 1 : 0;
    return sensed;
  };
}

/// The Fig. 2 tracker: average position (critical mass 2, freshness 1 s),
/// reported to the base station every `report_period`.
core::ContextTypeSpec tracker_spec(const WorldSpec& spec, NodeId base,
                                   bool traced) {
  core::ContextTypeSpec tracker;
  tracker.name = "tracker";
  tracker.activation = "target_sensed";
  tracker.variables.push_back(core::AggregateVarSpec{
      "location", "avg", "position", Duration::seconds(1), 2});

  core::MethodSpec report;
  report.name = "report";
  report.invocation.kind = core::InvocationSpec::Kind::kTimer;
  report.invocation.period = spec.report_period;
  auto body = [base](core::TrackingContext& ctx) {
    if (auto location = ctx.read_vector("location")) {
      ctx.send_to_node(base, "track", {location->x, location->y});
    }
  };
  if (traced) {
    report.body = [body](core::TrackingContext& ctx) {
      const std::int64_t start = now_ns();
      body(ctx);
      LayerCounters& counters = thread_counters();
      counters.method_ns += static_cast<std::uint64_t>(now_ns() - start);
      counters.method_calls++;
    };
  } else {
    report.body = body;
  }
  core::ObjectSpec reporter;
  reporter.name = "reporter";
  reporter.methods.push_back(std::move(report));
  tracker.objects.push_back(std::move(reporter));
  return tracker;
}

struct SetupTimes {
  double targets_s = 0.0;
  double ctor_s = 0.0;
  double start_s = 0.0;
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

using Counts = std::vector<std::pair<const char*, double>>;

/// One assembled field: environment, system, base-station store and the
/// optional fault injector / invariant oracle.
class World {
 public:
  World(const WorldSpec& spec, const sim::KernelConfig& kernel,
        std::uint64_t seed, bool traced, SpanBuffer& spans,
        std::int64_t parent, SetupTimes& times)
      : traced_(traced),
        sim_(seed),
        env_(sim_.make_rng("environment")),
        field_(env::Field::grid(spec.rows, spec.cols)) {
    std::int64_t start = now_ns();
    add_targets(spec);
    times.targets_s = seconds_since(start);
    spans.add("setup.targets", start, now_ns(), parent);

    core::SystemConfig config;
    config.kernel = kernel;
    config.cpu.queue_capacity = spec.cpu_queue;
    config.radio.burst_loss.enabled = spec.burst_loss;
    // Both fields run the pure §6 stack. No context invokes a remote port,
    // so the transport would carry nothing. With the directory on, its
    // updates routed across dense_6k collapse the channel (under half of
    // in-range receptions delivered) and the invariant oracle reports dual
    // leaders and epoch regressions.
    config.middleware.enable_directory = false;
    config.middleware.enable_transport = false;
    // Label-identity radii scale with the sensing radius, as in §6.
    core::GroupConfig& group = config.middleware.group;
    group.suppression_radius =
        std::max(group.suppression_radius, 2.0 * spec.sensing_radius);
    group.wait_radius =
        std::max(group.wait_radius, spec.sensing_radius + 1.5);

    start = now_ns();
    system_ = std::make_unique<core::EnviroTrackSystem>(sim_, env_, field_,
                                                        config);
    times.ctor_s = seconds_since(start);
    spans.add("setup.system_ctor", start, now_ns(), parent);

    start = now_ns();
    core::SensePredicate sense = core::sense_target("target");
    system_->senses().add("target_sensed",
                          traced ? timed_sense(std::move(sense)) : sense);
    const Rect bounds = field_.bounds();
    const NodeId base = field_.nearest({(bounds.min.x + bounds.max.x) / 2.0,
                                        (bounds.min.y + bounds.max.y) / 2.0});
    const core::TypeIndex tracker =
        system_->add_context_type(tracker_spec(spec, base, traced));
    system_->start();
    ingest_ = std::make_unique<serve::TrackIngest>(*system_, base, store_);
    if (spec.harass_leaders) {
      faults_ = std::make_unique<fault::FaultInjector>(*system_);
      if (!faults_->harass_leaders(tracker, Duration::seconds(10),
                                   Duration::seconds(2))) {
        throw std::runtime_error("leader harassment rejected");
      }
      // The oracle judges the faulted field in traced runs only: its scan
      // of every stack each 100 ms is host time the untraced metrics must
      // not include. Its dual-leader grace is 6 heartbeat periods instead
      // of 4: under Gilbert–Elliott bursts two adjacent co-leaders now and
      // then miss four heartbeats in a row (2 of 16 seeds over ~150
      // simulated seconds at 2 s; 0 of 30 at 3 s, and 0 of 9 at 2 s with
      // bursts off).
      if (traced) {
        metrics::InvariantConfig oracle_config;
        oracle_config.leader_overlap_grace = Duration::seconds(3);
        oracle_ = std::make_unique<metrics::InvariantOracle>(*system_,
                                                             oracle_config);
      }
    }
    times.start_s = seconds_since(start);
    spans.add("setup.start", start, now_ns(), parent);
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  core::EnviroTrackSystem& system() { return *system_; }
  const metrics::InvariantOracle* oracle() const { return oracle_.get(); }

  std::uint64_t events_fired() {
    std::uint64_t events = 0;
    for (sim::Simulator* engine : engines()) events += engine->events_fired();
    return events;
  }

  std::uint64_t pending_events() {
    std::uint64_t pending = 0;
    for (sim::Simulator* engine : engines()) pending += engine->pending_events();
    return pending;
  }

  /// Every deterministic per-layer count, summed over the motes.
  Counts counts() {
    std::uint64_t cpu_posted = 0, cpu_executed = 0, cpu_dropped = 0;
    Duration cpu_busy = Duration::zero();
    core::GroupStats groups;
    core::RuntimeStats runtime;
    net::RoutingStats routing;
    for (std::size_t i = 0; i < system_->node_count(); ++i) {
      core::MiddlewareStack& stack = system_->stack(NodeId{i});
      const node::Cpu::Stats& cpu = stack.mote().cpu().stats();
      cpu_posted += cpu.posted;
      cpu_executed += cpu.executed;
      cpu_dropped += cpu.dropped;
      cpu_busy += cpu.busy;
      const core::GroupStats& g = stack.groups().stats();
      groups.heartbeats_sent += g.heartbeats_sent;
      groups.reports_sent += g.reports_sent;
      groups.labels_created += g.labels_created;
      groups.takeovers += g.takeovers;
      groups.joins += g.joins;
      groups.fenced += g.fenced;
      const core::RuntimeStats& r = stack.runtime().stats();
      runtime.timer_invocations += r.timer_invocations;
      runtime.reports_to_nodes += r.reports_to_nodes;
      const net::RoutingStats& n = stack.routing().stats();
      routing.originated += n.originated;
      routing.delivered += n.delivered;
      routing.forwarded += n.forwarded;
      routing.retries += n.retries;
      routing.dropped_dead_end += n.dropped_dead_end;
    }
    const radio::MediumStats& medium = system_->medium().stats();
    const radio::TypeStats radio = medium.totals();
    const fault::FaultStats faults =
        faults_ ? faults_->stats() : fault::FaultStats{};
    const serve::IngestStats ingest = ingest_->stats();
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    Counts counts = {
        {"sim.events", d(events_fired())},
        {"node.cpu_tasks_posted", d(cpu_posted)},
        {"node.cpu_tasks_executed", d(cpu_executed)},
        {"node.cpu_tasks_dropped", d(cpu_dropped)},
        {"node.cpu_busy_sim_s", cpu_busy.to_seconds()},
        {"radio.frames_offered", d(radio.offered)},
        {"radio.frames_transmitted", d(radio.transmitted)},
        {"radio.mac_dropped", d(radio.mac_dropped)},
        {"radio.rx_attempts", d(radio.pair_attempts)},
        {"radio.rx_delivered", d(radio.pair_delivered)},
        {"radio.lost_collision", d(radio.pair_lost_collision)},
        {"radio.lost_burst", d(radio.pair_lost_burst)},
        {"radio.airtime_s", medium.airtime.to_seconds()},
        {"net.originated", d(routing.originated)},
        {"net.delivered", d(routing.delivered)},
        {"net.forwarded", d(routing.forwarded)},
        {"net.retries", d(routing.retries)},
        {"net.dead_ends", d(routing.dropped_dead_end)},
        {"core.group.heartbeats_sent", d(groups.heartbeats_sent)},
        {"core.group.reports_sent", d(groups.reports_sent)},
        {"core.group.labels_created", d(groups.labels_created)},
        {"core.group.takeovers", d(groups.takeovers)},
        {"core.group.joins", d(groups.joins)},
        {"core.group.fenced", d(groups.fenced)},
        {"core.runtime.timer_invocations", d(runtime.timer_invocations)},
        {"core.runtime.reports_to_nodes", d(runtime.reports_to_nodes)},
        {"fault.leader_crashes", d(faults.leader_crashes)},
        {"fault.reboots", d(faults.reboots)},
        {"serve.ingest.reports_seen", d(ingest.reports_seen)},
        {"serve.ingest.stale_discarded", d(ingest.stale_discarded)},
        {"serve.ingest.batches", d(ingest.batches_flushed)},
        {"serve.ingest.labels", d(store_.stats().labels)},
    };
    if (traced_) {
      const LayerCounters wrappers = sum_counters();
      counts.emplace_back("env.sense_calls", d(wrappers.sense_calls));
      counts.emplace_back("env.sense_true", d(wrappers.sense_true));
      counts.emplace_back("core.runtime.method_calls",
                          d(wrappers.method_calls));
    }
    return counts;
  }

  /// FNV-1a over the counts and the base-station store's contents.
  std::uint64_t digest(const Counts& counts) const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const void* data, std::size_t size) {
      const auto* bytes = static_cast<const unsigned char*>(data);
      for (std::size_t i = 0; i < size; ++i) {
        h = (h ^ bytes[i]) * 0x100000001b3ull;
      }
    };
    for (const auto& [name, value] : counts) {
      mix(name, std::strlen(name));
      mix(&value, sizeof value);
    }
    const Rect everything{{-1e9, -1e9}, {1e9, 1e9}};
    for (const serve::TrackSnapshot& s : store_.tracks_in_region(everything)) {
      const std::uint64_t fields[] = {s.label.value(),
                                      static_cast<std::uint64_t>(s.time.to_micros()),
                                      s.epoch, s.seq};
      mix(fields, sizeof fields);
      mix(&s.position.x, sizeof s.position.x);
      mix(&s.position.y, sizeof s.position.y);
    }
    return h;
  }

 private:
  /// The master simulator and, on the parallel kernel, every tile's.
  std::vector<sim::Simulator*> engines() {
    if (sim::ParallelKernel* kernel = system_->kernel()) {
      return kernel->all_sims();
    }
    return {&sim_};
  }

  void add_targets(const WorldSpec& spec) {
    const Rect bounds = field_.bounds();
    if (spec.walkers == 0) {
      const double margin = spec.sensing_radius + 0.5;
      const double y = static_cast<double>(spec.rows / 2);
      const double centre_x = (bounds.min.x + bounds.max.x) / 2.0;
      env::Target tank;
      tank.type = "target";
      tank.trajectory = std::make_unique<env::LinearTrajectory>(
          Vec2{centre_x - kTankLeadHops, y}, Vec2{bounds.max.x + margin, y},
          spec.speed_hops_per_s);
      tank.radius = env::RadiusProfile::constant(spec.sensing_radius);
      env_.add_target(std::move(tank));
      return;
    }
    Rng placement = sim_.make_rng("walker-starts");
    const double cell_w = bounds.width() / kCellColumns;
    const double cell_h =
        bounds.height() / static_cast<double>(spec.walkers / kCellColumns);
    for (std::size_t k = 0; k < spec.walkers; ++k) {
      const double x0 =
          bounds.min.x + static_cast<double>(k % kCellColumns) * cell_w;
      const double y0 =
          bounds.min.y + static_cast<double>(k / kCellColumns) * cell_h;
      const Rect cell{{x0 + kCellMargin, y0 + kCellMargin},
                      {x0 + cell_w - kCellMargin, y0 + cell_h - kCellMargin}};
      const Vec2 start{placement.uniform(cell.min.x, cell.max.x),
                       placement.uniform(cell.min.y, cell.max.y)};
      env::Target walker;
      walker.type = "target";
      walker.trajectory = std::make_unique<env::RandomWalkTrajectory>(
          cell, start, spec.speed_hops_per_s,
          sim_.make_rng("walker-" + std::to_string(k)));
      walker.radius = env::RadiusProfile::constant(spec.sensing_radius);
      env_.add_target(std::move(walker));
    }
  }

  bool traced_;
  sim::Simulator sim_;
  env::Environment env_;
  env::Field field_;
  serve::ShardedTrackStore store_;
  // Declared after everything they reference, so they are destroyed first.
  std::unique_ptr<core::EnviroTrackSystem> system_;
  std::unique_ptr<serve::TrackIngest> ingest_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<metrics::InvariantOracle> oracle_;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double count_of(const Counts& counts, const char* name) {
  for (const auto& [key, value] : counts) {
    if (std::strcmp(key, name) == 0) return value;
  }
  return 0.0;
}

}  // namespace

PhaseResult run_sim(const std::string& world_name,
                    const std::string& kernel_name,
                    const PhaseOptions& options) {
  const WorldSpec& spec = find_world(world_name);
  sim::KernelConfig kernel;
  std::string error;
  if (!bench::parse_kernel_selector(kernel_name, &kernel, &error)) {
    throw std::invalid_argument(error);
  }
  const std::int64_t origin = now_ns();
  SpanBuffer spans(0, 4096);
  PhaseResult result;
  util::Json& metrics = result.metrics;

  // Set up kSetups times; the last world is the one that runs. Tearing
  // down the earlier ones is not timed.
  std::vector<double> setup_s, targets_s, ctor_s, start_s;
  std::unique_ptr<World> world;
  for (int k = 0; k < kSetups; ++k) {
    world.reset();
    SetupTimes times;
    const std::int64_t span = spans.open("setup");
    const std::int64_t start = now_ns();
    world = std::make_unique<World>(spec, kernel, options.seed,
                                    options.traced, spans, span, times);
    setup_s.push_back(seconds_since(start));
    spans.close(span);
    targets_s.push_back(times.targets_s);
    ctor_s.push_back(times.ctor_s);
    start_s.push_back(times.start_s);
  }
  metrics.set("setup_s", median(setup_s));
  metrics.set("setup.targets_s", median(targets_s));
  metrics.set("setup.system_ctor_s", median(ctor_s));
  metrics.set("setup.start_s", median(start_s));

  const auto scaled = [&](int span_s) {
    return static_cast<int>(span_s * options.span_scale + 0.5);
  };
  const int warmup = scaled(spec.warmup_s);
  const int timed = std::max(1, scaled(spec.timed_s));
  core::EnviroTrackSystem& system = world->system();

  const std::int64_t warm_span = spans.open("sim.warmup");
  system.run_until(Time::seconds(warmup));
  spans.close(warm_span);
  if (sim::ParallelKernel* parallel = system.kernel()) parallel->reset_stats();

  const LayerCounters wrappers_before = sum_counters();
  const std::uint64_t events_before = world->events_fired();
  std::vector<double> slice_s;
  double timed_s = 0.0;
  Counts final_counts;
  const std::int64_t timed_span = spans.open("sim.timed");
  for (int second = 1; second <= timed; ++second) {
    const std::int64_t start = now_ns();
    system.run_until(Time::seconds(warmup + second));
    const std::int64_t end = now_ns();
    spans.add("sim.run_until", start, end, timed_span);
    slice_s.push_back(static_cast<double>(end - start) / 1e9);
    timed_s += slice_s.back();
    result.slices.push_back(slice_s.back());

    final_counts = world->counts();
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, world->digest(final_counts));
    result.digests.push_back(std::string(hex));
    ++result.attempted;
  }
  spans.close(timed_span);
  const LayerCounters wrappers = sum_counters();
  const double timed_events =
      static_cast<double>(world->events_fired() - events_before);

  metrics.set("sim.rate", 1.0 / median(slice_s));
  metrics.set("sim.host_ns_per_event", timed_s * 1e9 / timed_events);
  metrics.set("sim.slice_wall_ms_p50", median(slice_s) * 1e3);
  metrics.set("sim.slice_wall_ms_max",
              *std::max_element(slice_s.begin(), slice_s.end()) * 1e3);
  metrics.set("sim.pending_events_end",
              static_cast<double>(world->pending_events()));

  for (const auto& [name, value] : final_counts) {
    result.counts.set(name, value);
    metrics.set(name, value);
  }
  const Counts& c = final_counts;
  metrics.set("radio.rx_delivered_ratio",
              ratio(count_of(c, "radio.rx_delivered"),
                    count_of(c, "radio.rx_attempts")));
  // Coordinate-addressed envelopes can be consumed at more than one node
  // after ARQ fallbacks, so this is a rate per envelope, not a share.
  metrics.set("net.deliveries_per_originated",
              ratio(count_of(c, "net.delivered"), count_of(c, "net.originated")));

  if (options.traced) {
    metrics.set("env.sense_true_ratio",
                ratio(count_of(c, "env.sense_true"),
                      count_of(c, "env.sense_calls")));
    const double sense_ns =
        static_cast<double>(wrappers.sense_ns - wrappers_before.sense_ns);
    metrics.set("env.sense_ns_per_call",
                ratio(sense_ns, static_cast<double>(
                                    wrappers.sense_calls -
                                    wrappers_before.sense_calls)));
    metrics.set("env.sense_wall_share", sense_ns / (timed_s * 1e9));
    metrics.set(
        "core.runtime.method_ns_per_call",
        ratio(static_cast<double>(wrappers.method_ns - wrappers_before.method_ns),
              static_cast<double>(wrappers.method_calls -
                                  wrappers_before.method_calls)));
  }

  if (sim::ParallelKernel* parallel = system.kernel()) {
    const sim::ParallelKernelStats& ks = parallel->stats();
    metrics.set("sim.kernel.windows", static_cast<double>(ks.windows));
    metrics.set("sim.kernel.mean_window_us", ks.mean_window_width_us());
    metrics.set("sim.kernel.windows_cut_world",
                static_cast<double>(ks.windows_cut_world));
    metrics.set("sim.kernel.tile_phase_s",
                static_cast<double>(ks.tile_phase_ns) / 1e9);
    metrics.set("sim.kernel.serial_phase_s",
                static_cast<double>(ks.serial_phase_ns) / 1e9);
    metrics.set("sim.kernel.serial_fraction", ks.serial_fraction());
    metrics.set("sim.kernel.fanout_receivers",
                static_cast<double>(ks.fanout_receivers));
    // Worker CPU over the process lifetime, read while the workers of the
    // running world still exist (they exit at teardown).
    const std::vector<double> workers = worker_thread_cpu_s();
    if (!workers.empty()) {
      double sum = 0.0;
      for (const double s : workers) sum += s;
      const double mean = sum / static_cast<double>(workers.size());
      const double max = *std::max_element(workers.begin(), workers.end());
      metrics.set("sim.kernel.worker_cpu_s_mean", mean);
      metrics.set("sim.kernel.worker_cpu_s_max", max);
      metrics.set("sim.kernel.imbalance", ratio(max, mean));
    }
  }

  if (const metrics::InvariantOracle* oracle = world->oracle()) {
    result.attempted += oracle->checks_run();
    for (const metrics::InvariantViolation& v : oracle->violations()) {
      result.fail("invariant: " + v.to_string());
    }
  }

  metrics.set("proc.cpu_s", process_cpu_s());
  metrics.set("proc.wall_s", seconds_since(origin));
  metrics.set("peak_rss_mb", peak_rss_mb());
  if (options.traced && !options.trace_out.empty() &&
      !write_chrome_trace(options.trace_out, {&spans}, origin)) {
    result.fail("cannot write " + options.trace_out);
  }
  return result;
}

}  // namespace et::perf
