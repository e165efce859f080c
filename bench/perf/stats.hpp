#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

/// Order statistics and open-loop timing rules of the perf benchmark.
///
/// Every latency the benchmark reports goes through these helpers, so the
/// definitions below are the metric definitions: percentiles are
/// nearest-rank, open-loop latencies start at the scheduled send time, and
/// served age starts when the writer was due to apply the report.
namespace et::perf {

/// Nearest-rank percentile (`p` in [0, 100]) of an ascending sample: the
/// smallest value with at least p% of the sample at or below it. NaN when
/// the sample is empty.
template <typename T>
double percentile_sorted(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return std::nan("");
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

/// Percentile of an unsorted sample (sorts a copy).
template <typename T>
double percentile(std::vector<T> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

/// Median (mean of the two middle values for an even count). NaN when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, ... that still
/// has at least `min_beyond` samples above it — the deepest tail a sample
/// of `n` supports. `beyond` is how many samples lie past it.
struct TailRank {
  double percentile = 0.0;
  std::uint64_t beyond = 0;
};

inline TailRank tail_rank(std::uint64_t n, std::uint64_t min_beyond = 10) {
  TailRank best;
  // 1 / denominator of the sample lies beyond the percentile.
  for (std::uint64_t denominator = 2; n / denominator >= min_beyond;
       denominator = denominator == 2 ? 10 : denominator * 10) {
    best.percentile = 100.0 - 100.0 / static_cast<double>(denominator);
    best.beyond = n / denominator;
  }
  return best;
}

/// Scheduled send time of request `i` from an open-loop generator that
/// starts at `t0_ns` and issues `rate_per_s` requests per second.
inline std::int64_t scheduled_ns(std::int64_t t0_ns, std::uint64_t i,
                                 double rate_per_s) {
  return t0_ns + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                           rate_per_s);
}

/// Open-loop latency: completion minus the *scheduled* send time, so a
/// stall is charged to every request that was due while it lasted.
inline std::int64_t open_loop_latency_ns(std::int64_t scheduled,
                                         std::int64_t completed) {
  return completed - scheduled;
}

/// How late the generator issued a request (never negative: a request sent
/// early is a generator bug, not a gain).
inline std::int64_t lateness_ns(std::int64_t scheduled, std::int64_t sent) {
  return std::max<std::int64_t>(0, sent - scheduled);
}

/// When a paced writer was due to apply stream item `index`: the writer
/// starts at `t0_ns` after a pre-fill of `prefill` items (all due at t0)
/// and then applies `rate_per_s` items per second.
inline std::int64_t paced_due_ns(std::int64_t t0_ns, std::uint64_t index,
                                 std::uint64_t prefill, double rate_per_s) {
  if (index < prefill) return t0_ns;
  return scheduled_ns(t0_ns, index - prefill, rate_per_s);
}

/// Served age: wall time from when the served report was due to the moment
/// the query that returned it completed.
inline std::int64_t served_age_ns(std::int64_t due, std::int64_t completed) {
  return completed - due;
}

}  // namespace et::perf
