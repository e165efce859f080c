/// Figure 6 — "Effect of Sensory Radius on Maximum Trackable Speed".
///
/// Maximum trackable speed versus the ratio of communication radius (CR) to
/// sensing radius (SR), using the leadership-relinquish optimisation, for
/// two event sizes. Paper shape: for a given CR:SR ratio, larger events
/// (bigger SR) are trackable at higher speeds (fewer handovers per
/// distance); the architecture breaks down when CR:SR drops below 1, since
/// nodes outside the leader's radio range sense the event and form spurious
/// concurrent groups.

#include <cstdlib>
#include <iterator>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/sweep_runner.hpp"
#include "metrics/trace.hpp"
#include "scenario/speed_search.hpp"

namespace {

using namespace et;
using namespace et::scenario;

double measure(double sensing_radius, double ratio, int seeds) {
  SpeedSearchParams search;
  search.base.cols = 20;
  search.base.rows = 2 * static_cast<std::size_t>(sensing_radius) + 1;
  search.base.sensing_radius = sensing_radius;
  search.base.track_y = sensing_radius - 0.5;
  search.base.radio.comm_radius = ratio * sensing_radius;
  search.base.group.relinquish_enabled = true;
  search.base.group.heartbeat_period = Duration::seconds(0.5);
  // Fast targets outrun a tight wait-memory gate (the position estimate
  // lags by up to speed x freshness); widen it with the event size.
  search.base.group.wait_radius = 2.0 * sensing_radius + 2.5;
  // Groups can span more than one radio hop at low CR:SR; members re-flood
  // heartbeats to keep the group connected ("All members of a sensor group
  // can communicate with each other possibly using multiple hops through
  // other members", §3.2.1).
  search.base.group.member_relay_heartbeats = true;
  search.base.base_station.reset();
  search.lo = 0.1;
  search.hi = 6.0;
  search.resolution = 0.15;
  search.seeds = seeds;
  search.min_tracked_fraction = 0.3;
  return find_max_trackable_speed(search);
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 6: effect of sensory radius on max trackable speed",
      "ICDCS'04 EnviroTrack, Fig. 6 (§6.2)");
  const int seeds = bench::seeds_per_point(3);
  std::printf("(relinquish optimisation on; %d runs per probe, "
              "%u sweep threads)\n", seeds, bench::sweep_threads());

  const double ratios[] = {0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0};
  const double radii[] = {1.0, 2.0};
  constexpr std::size_t kRatioCount = std::size(ratios);

  // All (sensing radius, ratio) points are independent; sweep them in
  // parallel, then print in the figure's order.
  const std::vector<double> flat = bench::run_sweep<double>(
      std::size(radii) * kRatioCount, [&](std::size_t job) {
        return measure(radii[job / kRatioCount], ratios[job % kRatioCount],
                       seeds);
      });

  std::printf("\n  CR:SR ratio:       ");
  for (double r : ratios) std::printf("%7.2f", r);
  std::vector<std::vector<double>> curves;
  for (std::size_t s = 0; s < std::size(radii); ++s) {
    std::printf("\n  SR=%.0f max (h/s):  ", radii[s]);
    curves.emplace_back(flat.begin() + s * kRatioCount,
                        flat.begin() + (s + 1) * kRatioCount);
    for (double speed : curves.back()) std::printf("%7.2f", speed);
  }

  if (const char* dir = std::getenv("ET_BENCH_CSV_DIR")) {
    const std::string path = std::string(dir) + "/fig6_ratio.csv";
    const std::string csv = et::metrics::series_csv(
        "cr_sr_ratio", {ratios, ratios + std::size(ratios)},
        {{"sr1", curves[0]}, {"sr2", curves[1]}});
    if (et::metrics::write_file(path, csv)) {
      std::printf("\n  wrote %s\n", path.c_str());
    }
  }

  std::printf(
      "\n\n  paper shape: increases with the ratio; larger SR dominates at\n"
      "  equal ratio; collapse below CR:SR = 1.\n");
  return 0;
}
