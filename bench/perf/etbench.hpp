#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

/// One etbench process runs one phase of a benchmark workload: a simulated
/// mote field on one kernel, or a load against the track store. run.py
/// starts a fresh process per phase, so set-up time and peak memory belong
/// to that phase alone.
namespace et::perf {

/// Set-ups per process; set-up metrics are the median over them.
inline constexpr int kSetups = 5;

struct PhaseOptions {
  std::uint64_t seed = 0;
  /// Wall seconds a store load measures for. Field phases ignore it: they
  /// run the fixed simulated spans of their world.
  double seconds = 1.0;
  /// Arm the timing wrappers and record spans.
  bool traced = false;
  /// Chrome trace-event output file (traced runs only; empty = none).
  std::string trace_out;
  /// Scales every warm-up and the fields' timed spans (traced and smoke
  /// runs).
  double span_scale = 1.0;
};

/// What a phase reports back to run.py.
struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Host-dependent measurements, by metric name.
  util::Json metrics = util::Json::object();
  /// Counts that are a pure function of the seed (compared across runs and
  /// kernels by run.py).
  util::Json counts = util::Json::object();
  /// State digest after each timed simulated second (sim phases).
  util::Json digests = util::Json::array();
  /// Wall seconds of each timed simulated second (sim phases).
  util::Json slices = util::Json::array();

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
};

/// Runs `world` ("sparse_100k" | "dense_6k") on the kernel named by an
/// ET_KERNEL-style selector ("serial" | "parallel:3").
PhaseResult run_sim(const std::string& world, const std::string& kernel,
                    const PhaseOptions& options);

/// Runs the store load `mix` ("read_heavy" | "write_heavy").
PhaseResult run_serve(const std::string& mix, const PhaseOptions& options);

}  // namespace et::perf
