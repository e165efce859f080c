/// Micro-benchmarks of the library's hot paths (google-benchmark).
///
/// Not a paper figure; these guard the substrate's performance: event-queue
/// throughput, aggregation reads, the language pipeline, geographic
/// routing, and a full simulated second of the tank scenario.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/aggregate_state.hpp"
#include "metrics/trace.hpp"
#include "etl/compiler.hpp"
#include "etl/parser.hpp"
#include "metrics/json_rows.hpp"
#include "scenario/tank.hpp"
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
                              static_cast<double>(i / 10)});
  }
  medium.set_receiver([](NodeId, const radio::Frame&) {});
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
                              static_cast<double>(i / side)});
  }
  medium.set_receiver([](NodeId, const radio::Frame&) {});
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
    }
  }

  const et::metrics::JsonRows& rows() const { return rows_; }

 private:
  et::metrics::JsonRows rows_;
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
