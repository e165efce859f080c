/// Micro-benchmarks of the library's hot paths (google-benchmark).
///
/// Not a paper figure; these guard the substrate's performance: event-queue
/// throughput, aggregation reads, the language pipeline, geographic
/// routing, and a full simulated second of the tank scenario.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/aggregate_state.hpp"
#include "metrics/trace.hpp"
#include "etl/compiler.hpp"
#include "etl/parser.hpp"
#include "scenario/tank.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace et;

void BM_EventQueueScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(Duration::micros(i), [] {});
    }
    benchmark::DoNotOptimize(sim.run_all());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // The cancellation-dominated regime: group-management timers are
  // rescheduled (cancel + schedule) far more often than they fire.
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.schedule(Duration::micros(i + 1), [] {}));
    }
    for (int i = 0; i < 1000; i += 2) handles[i].cancel();
    benchmark::DoNotOptimize(sim.run_all());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_PeriodicEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    sim.schedule_periodic(Duration::millis(1), Duration::millis(1),
                          [&] { ++counter; });
    sim.run_until(Time::seconds(1));
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PeriodicEvents);

void BM_AggregateRead(benchmark::State& state) {
  core::ContextTypeSpec spec;
  spec.name = "bench";
  spec.activation = "x";
  spec.variables.push_back(core::AggregateVarSpec{
      "location", "avg", "position", Duration::seconds(1), 2});
  const auto registry = core::AggregationRegistry::with_builtins();
  core::AggregateStateTable table(spec, registry);
  const std::size_t reporters = state.range(0);
  for (std::size_t i = 0; i < reporters; ++i) {
    table.add_report(NodeId{i}, {static_cast<double>(i), 0.0},
                     Time::seconds(0.5), {0.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.read(0u, Time::seconds(1)));
  }
}
BENCHMARK(BM_AggregateRead)->Arg(4)->Arg(16)->Arg(64);

void BM_EtlParse(benchmark::State& state) {
  constexpr const char* kSource = R"(
    begin context tracker
      activation: magnetic_sensor_reading();
      location : avg(position) confidence=2, freshness=1s;
      begin object reporter
        invocation: TIMER(5s)
        report() { send(pursuer, self.label, location); }
      end
    end context
  )";
  for (auto _ : state) {
    auto program = etl::parse(kSource);
    benchmark::DoNotOptimize(program.ok());
  }
}
BENCHMARK(BM_EtlParse);

void BM_MediumBroadcast(benchmark::State& state) {
  sim::Simulator sim;
  radio::RadioConfig config;
  config.loss_probability = 0.0;
  radio::Medium medium(sim, config);
  const std::size_t n = state.range(0);
  for (std::size_t i = 0; i < n; ++i) {
    medium.attach(NodeId{i}, {static_cast<double>(i % 10),
                              static_cast<double>(i / 10)},
                  [](const radio::Frame&) {});
  }
  class Junk final : public radio::Payload {
   public:
    std::size_t size_bytes() const override { return 16; }
  };
  auto payload = std::make_shared<Junk>();
  for (auto _ : state) {
    medium.send(radio::Frame{NodeId{0}, std::nullopt, radio::MsgType::kUser,
                             payload});
    sim.run_for(Duration::millis(50));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumBroadcast)->Arg(25)->Arg(100);

/// Dense-field broadcast: N motes on a sqrt(N) x sqrt(N) unit grid with the
/// paper's comm radius 6, one node broadcasting from the centre. With the
/// spatial index the per-broadcast cost depends on the ~121 nodes in range,
/// not on N; the brute-force variant (suffix /0) scans all N endpoints.
void BM_DenseBroadcast(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const bool use_index = state.range(1) != 0;
  sim::Simulator sim;
  radio::RadioConfig config;
  config.loss_probability = 0.0;
  config.use_spatial_index = use_index;
  radio::Medium medium(sim, config);
  const std::size_t side = static_cast<std::size_t>(std::sqrt(n)) + 1;
  for (std::size_t i = 0; i < n; ++i) {
    medium.attach(NodeId{i}, {static_cast<double>(i % side),
                              static_cast<double>(i / side)},
                  [](const radio::Frame&) {});
  }
  class Junk final : public radio::Payload {
   public:
    std::size_t size_bytes() const override { return 16; }
  };
  auto payload = std::make_shared<Junk>();
  const NodeId center{n / 2};
  for (auto _ : state) {
    medium.send(radio::Frame{center, std::nullopt, radio::MsgType::kUser,
                             payload});
    sim.run_for(Duration::millis(50));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DenseBroadcast)
    ->ArgsProduct({{100, 1000, 5000}, {0, 1}})
    ->ArgNames({"n", "index"});

/// Large-world scaling: N motes (squarest rows x cols factorisation), the
/// tank crossing the middle band, two simulated seconds per measurement.
/// threads:0 is the serial canonical oracle; threads:k runs the tiled
/// parallel kernel. Reported as sim-seconds per wall-second; the reporter
/// derives speedup_vs_serial rows from the threads:0 baseline.
void BM_ScalingTank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const bool wide = state.range(2) != 0;
  constexpr double kSimSeconds = 2.0;
  std::size_t rows = 1, cols = n;
  for (auto r = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
       r >= 1; --r) {
    if (n % r == 0) {
      rows = r;
      cols = n / r;
      break;
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    scenario::TankScenarioParams params;
    params.rows = rows;
    params.cols = cols;
    params.track_y = rows / 2.0;
    params.speed_hops_per_s = 5.0;
    // The ground-truth monitor scans all N stacks per sample (serial);
    // sample sparsely so the kernel, not the instrumentation, is measured.
    params.coherence_sample_period = Duration::seconds(1);
    params.kernel.canonical_order = true;
    params.kernel.wide_windows = wide;
    if (threads > 0) {
      params.kernel.use_parallel_kernel = true;
      params.kernel.threads = threads;
    }
    auto tank = std::make_unique<scenario::TankScenario>(params);
    state.ResumeTiming();
    tank->run_for(Duration::seconds(kSimSeconds));
    state.PauseTiming();
    // Kernel telemetry: how many barrier windows the run executed, how wide
    // they were, and where the wall time went. The serial-fraction counter
    // is the measured Amdahl bound of this configuration.
    if (sim::ParallelKernel* kernel = tank->system().kernel()) {
      const sim::ParallelKernelStats& ks = kernel->stats();
      state.counters["windows"] = static_cast<double>(ks.windows);
      state.counters["mean_window_us"] = ks.mean_window_width_us();
      state.counters["max_window_us"] =
          ks.window_width_max.to_seconds() * 1e6;
      state.counters["windows_cut_world"] =
          static_cast<double>(ks.windows_cut_world);
      state.counters["serial_fraction"] = ks.serial_fraction();
      state.counters["fanout_batches"] =
          static_cast<double>(ks.fanout_batches);
      state.counters["fanout_receivers"] =
          static_cast<double>(ks.fanout_receivers);
    }
    tank.reset();  // teardown of N motes stays outside the measurement
    state.ResumeTiming();
  }
  state.counters["sim_sps"] = benchmark::Counter(
      kSimSeconds * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScalingTank)
    ->ArgsProduct({{10000, 50000, 100000}, {0, 1, 2, 4, 8}, {1}})
    // One narrow-window row: the global-min-airtime baseline the wide
    // planner's window count is compared against.
    ->Args({50000, 2, 0})
    ->ArgNames({"n", "threads", "wide"})
    ->UseRealTime()
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

void BM_TankScenarioSecond(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    scenario::TankScenarioParams params;
    params.cols = 12;
    params.speed_hops_per_s = 0.2;
    scenario::TankScenario scenario(params);
    state.ResumeTiming();
    scenario.run_for(Duration::seconds(1));
  }
}
BENCHMARK(BM_TankScenarioSecond);

/// Console output plus machine-readable {config, seed, metric, value} rows
/// (the shared BENCH_*.json format; seed is 0 — micro-benchmarks are not
/// seeded experiments). Enabled by ET_BENCH_JSON_DIR, same as the sweeps.
class RowReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      rows_.add(run.benchmark_name(), 0, "cpu_time_ns",
                run.GetAdjustedCPUTime());
      rows_.add(run.benchmark_name(), 0, "real_time_ns",
                run.GetAdjustedRealTime());
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        rows_.add(run.benchmark_name(), 0, "items_per_second",
                  static_cast<double>(items->second));
      }
      // Kernel telemetry counters (BM_ScalingTank): one row each, so the
      // window/barrier/serial-fraction trajectory survives in the JSON.
      static constexpr const char* kKernelCounters[] = {
          "windows",          "mean_window_us",  "max_window_us",
          "windows_cut_world", "serial_fraction", "fanout_batches",
          "fanout_receivers"};
      for (const char* counter : kKernelCounters) {
        const auto it = run.counters.find(counter);
        if (it != run.counters.end()) {
          rows_.add(run.benchmark_name(), 0, counter,
                    static_cast<double>(it->second));
        }
      }
      const auto sps = run.counters.find("sim_sps");
      if (sps != run.counters.end()) {
        const std::string name = run.benchmark_name();
        rows_.add(name, 0, "sim_seconds_per_second",
                  static_cast<double>(sps->second));
        // threads:0 is the serial oracle baseline for its world size; every
        // later threads:k run of the same size gets a speedup row.
        const auto pos = name.find("threads:");
        if (pos == std::string::npos) continue;
        const std::string size_key = name.substr(0, pos);
        const bool is_serial = name.compare(pos + 8, 2, "0/") == 0 ||
                               name.compare(pos + 8, std::string::npos, "0") == 0;
        if (is_serial) {
          serial_rate_[size_key] = static_cast<double>(sps->second);
        } else if (const auto it = serial_rate_.find(size_key);
                   it != serial_rate_.end() && it->second > 0) {
          rows_.add(name, 0, "speedup_vs_serial",
                    static_cast<double>(sps->second) / it->second);
        }
      }
    }
  }

  const et::bench::JsonRows& rows() const { return rows_; }

 private:
  et::bench::JsonRows rows_;
  std::map<std::string, double> serial_rate_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RowReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (const char* dir = std::getenv("ET_BENCH_JSON_DIR")) {
    const std::string path = std::string(dir) + "/BENCH_micro.json";
    if (!reporter.rows().empty() &&
        et::metrics::write_file(path, reporter.rows().render())) {
      std::printf("wrote %s\n", path.c_str());
    }
  }
  return 0;
}
