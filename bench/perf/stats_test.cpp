/// Unit test of the benchmark's statistics rules (stats.hpp). Dependency
/// free so the benchmark package builds where GTest is absent; exits
/// non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using namespace et::perf;

  // Median: middle value, or the mean of the two middle values.
  CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(std::isnan(median({})));

  // Nearest-rank percentiles: p50 of 1..100 is 50, p99 is 99, p100 the max.
  std::vector<int> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  CHECK(near(percentile(hundred, 50), 50.0));
  CHECK(near(percentile(hundred, 99), 99.0));
  CHECK(near(percentile(hundred, 100), 100.0));
  CHECK(near(percentile(hundred, 0), 1.0));
  CHECK(near(percentile(std::vector<int>{7}, 99), 7.0));
  CHECK(std::isnan(percentile(std::vector<int>{}, 50)));

  // Tail rule: the deepest "nines" percentile with >= 10 samples beyond.
  CHECK(near(tail_rank(1000).percentile, 99.0));
  CHECK(tail_rank(1000).beyond == 10);
  CHECK(near(tail_rank(999).percentile, 90.0));
  CHECK(near(tail_rank(2'000'000).percentile, 99.999));
  CHECK(tail_rank(2'000'000).beyond == 20);
  CHECK(near(tail_rank(20).percentile, 50.0));
  CHECK(tail_rank(19).beyond == 0);

  // Open loop: request i of a 100k/s generator is due 10 us apart, and a
  // stall is charged to every request that was due during it.
  const std::int64_t t0 = 1'000'000;
  CHECK(scheduled_ns(t0, 0, 100000.0) == t0);
  CHECK(scheduled_ns(t0, 3, 100000.0) == t0 + 30'000);
  // A 50 us stall at request 0: request 3 (due at +30 us) completes at
  // +52 us, so its latency is 22 us although its service took 2 us.
  CHECK(open_loop_latency_ns(scheduled_ns(t0, 3, 100000.0), t0 + 52'000) ==
        22'000);
  CHECK(lateness_ns(t0 + 30'000, t0 + 50'000) == 20'000);
  CHECK(lateness_ns(t0 + 30'000, t0 + 10'000) == 0);

  // Served age from the paced schedule: pre-filled items were due at t0,
  // item prefill + k was due k / rate after t0.
  CHECK(paced_due_ns(t0, 5, 100, 1000.0) == t0);
  CHECK(paced_due_ns(t0, 100, 100, 1000.0) == t0);
  CHECK(paced_due_ns(t0, 103, 100, 1000.0) == t0 + 3'000'000);
  CHECK(served_age_ns(paced_due_ns(t0, 103, 100, 1000.0), t0 + 4'500'000) ==
        1'500'000);

  if (failures != 0) return EXIT_FAILURE;
  std::puts("stats_test: all checks passed");
  return EXIT_SUCCESS;
}
