#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/kernel_config.hpp"

/// Shared helpers for the figure/table reproduction binaries.
namespace et::bench {

/// Parses an ET_KERNEL-style kernel selector into `*kernel`:
///   "" / "serial"  -> serial kernel
///   "parallel"     -> tiled parallel kernel, default threads
///   "parallel:N"   -> tiled parallel kernel, N worker threads
/// Returns false (and fills `*error` when non-null) on anything else —
/// including `parallel:0`, negative, or non-numeric thread counts, which
/// must fail loudly: a sweep silently falling back to a default thread
/// count would benchmark the wrong configuration. "legacy" names the
/// removed (time, FIFO) event order and is refused with that reason.
inline bool parse_kernel_selector(const std::string& value,
                                  sim::KernelConfig* kernel,
                                  std::string* error = nullptr) {
  *kernel = sim::KernelConfig{};
  if (value.empty() || value == "serial") return true;
  if (value == "legacy") {
    if (error) {
      *error = "ET_KERNEL 'legacy': the legacy (time, FIFO) event order "
               "was removed; every kernel runs the canonical order (use "
               "serial, parallel, or parallel:N)";
    }
    return false;
  }
  if (value == "parallel") {
    kernel->use_parallel_kernel = true;
    return true;
  }
  const std::string prefix = "parallel:";
  if (value.rfind(prefix, 0) == 0) {
    const std::string spec = value.substr(prefix.size());
    if (spec.empty() ||
        spec.find_first_not_of("0123456789") != std::string::npos) {
      if (error) {
        *error = "ET_KERNEL '" + value +
                 "': thread count must be a positive integer";
      }
      return false;
    }
    // strtoul saturates on overflow, so absurd counts also land here.
    const unsigned long threads = std::strtoul(spec.c_str(), nullptr, 10);
    if (threads == 0 || threads > 1024) {
      if (error) {
        *error = "ET_KERNEL '" + value +
                 "': thread count must be between 1 and 1024";
      }
      return false;
    }
    kernel->use_parallel_kernel = true;
    kernel->threads = static_cast<unsigned>(threads);
    return true;
  }
  if (error) {
    *error = "unknown ET_KERNEL '" + value +
             "' (expected serial, parallel, or parallel:N)";
  }
  return false;
}

/// Kernel selection from the ET_KERNEL environment variable (unset/empty =
/// serial kernel). Exits with the parser's message on a malformed value.
/// Serial and "parallel:N" runs print byte-identical output — CI diffs
/// them.
inline sim::KernelConfig kernel_from_env() {
  sim::KernelConfig kernel;
  const char* env = std::getenv("ET_KERNEL");
  if (!env) return kernel;
  std::string error;
  if (!parse_kernel_selector(env, &kernel, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  return kernel;
}

/// Seeds per measured point; override with ET_BENCH_SEEDS=n (smaller is
/// faster, noisier).
inline int seeds_per_point(int fallback = 3) {
  if (const char* env = std::getenv("ET_BENCH_SEEDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n==========================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==========================================================\n");
}

}  // namespace et::bench
