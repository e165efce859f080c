/// etbench — one phase of the perf benchmark per process.
///
///   etbench sim <sparse_100k|dense_6k> <serial|parallel:3> [options]
///   etbench serve <read_heavy|write_heavy> [options]
///
/// Options: --seed N, --seconds S (measured wall time of a store load),
/// --trace 0|1, --trace-out FILE (Chrome trace of a traced run),
/// --span-scale F (scales the fields' fixed simulated spans and warm-ups).
///
/// Prints one JSON object (metrics, deterministic counts, per-second state
/// digests and wall times, attempted/failed operations) as the last line of
/// stdout and exits non-zero when any operation failed. bench/perf/run.py
/// combines the phases of a workload and applies the cross-kernel checks.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "etbench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "etbench: %s\n"
               "usage: etbench sim <world> <kernel> [options]\n"
               "       etbench serve <mix> [options]\n"
               "options: --seed N --seconds S --trace 0|1 --trace-out FILE "
               "--span-scale F\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace et::perf;
  if (argc < 3) return usage("missing phase");
  const std::string phase = argv[1];
  const bool sim = phase == "sim";
  if (!sim && phase != "serve") return usage("phase must be sim or serve");
  const int positional = sim ? 4 : 3;
  if (argc < positional) return usage("missing arguments");

  PhaseOptions options;
  for (int i = positional; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
      options.traced = v == "1";
      end = const_cast<char*>(value) + v.size();
    } else if (flag == "--trace-out") {
      options.trace_out = value;
      end = const_cast<char*>(value) + options.trace_out.size();
    } else if (flag == "--span-scale") {
      options.span_scale = std::strtod(value, &end);
      if (!(options.span_scale > 0.0)) return usage("--span-scale must be > 0");
    } else {
      return usage(("unknown option " + flag).c_str());
    }
    if (end == value || *end != '\0') {
      return usage(("bad value for " + flag).c_str());
    }
  }

  PhaseResult result;
  try {
    result = sim ? run_sim(argv[2], argv[3], options)
                 : run_serve(argv[2], options);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  et::util::Json out = et::util::Json::object();
  out.set("attempted", result.attempted);
  out.set("failed", result.failed);
  et::util::Json errors = et::util::Json::array();
  for (const std::string& e : result.errors) errors.push_back(e);
  out.set("errors", std::move(errors));
  out.set("metrics", std::move(result.metrics));
  out.set("counts", std::move(result.counts));
  out.set("digests", std::move(result.digests));
  out.set("slices", std::move(result.slices));
  std::printf("%s\n", out.dump().c_str());
  return result.failed == 0 ? 0 : 1;
}
