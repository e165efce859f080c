/// Serve-load bench — query latency of the track-serving tier.
///
/// ROADMAP item 3 measured: the base station as a sharded in-memory
/// service instead of a passive log. Three phases:
///
///  1. *Record*: one tank traverse (3 x 12 grid) with the serving tier
///     attached; the ingest tape (decoded, epoch-fenced reports in ingest
///     order) becomes the replay input.
///  2. *Synthesize*: the tape is replicated across ET_SERVE_TRACKS
///     spatially-offset synthetic labels, interleaved per report — a
///     many-target feed the single-scenario simulator cannot yet produce
///     at this density.
///  3. *Load*: a writer thread replays the synthetic feed through
///     ShardedTrackStore::apply_batch in ingest-sized batches, looping
///     until time is up, while N closed-loop client threads hammer the
///     query API (60% latest, 30% tracks_in_region, 10% history) and
///     timestamp every call.
///
/// Reported per client count: p50/p99/p999 query latency (µs), queries/s,
/// and the concurrent ingest rate. Rows are persisted as
/// {config, seed, metric, value} into BENCH_serve.json (ET_BENCH_JSON_DIR
/// or the working directory). Client counts and latency values are
/// wall-clock measurements and vary with the host; the query *answers* are
/// validated (a snapshot must carry the label it was asked for, and every
/// synthetic label must be served once the feed has cycled) and the bench
/// exits non-zero on any violation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "metrics/json_rows.hpp"
#include "metrics/trace.hpp"
#include "scenario/tank.hpp"
#include "serve/ingest.hpp"
#include "serve/track_store.hpp"

namespace {

using namespace et;

using Clock = std::chrono::steady_clock;

double env_double(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return fallback;
}

int env_int(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Phase 1: one instrumented tank traverse; returns the ingest tape.
std::vector<metrics::DecodedTrack> record_tape(std::uint64_t seed) {
  scenario::TankScenarioParams params;
  // Small field fully inside the base station's comm radius, slow target,
  // fast reports: maximises delivered reports per simulated second.
  params.rows = 3;
  params.cols = 8;
  params.speed_hops_per_s = 0.75;
  params.report_period = Duration::millis(250);
  params.seed = seed;
  scenario::TankScenario scenario(params);

  serve::ShardedTrackStore store;
  serve::IngestConfig ingest_config;
  ingest_config.record_tape = true;
  serve::TrackIngest ingest(scenario.system(), NodeId{0}, store,
                            ingest_config);
  scenario.run();
  ingest.flush();
  std::printf("  recorded: %llu reports, %llu stale-fenced, %llu batches, "
              "%llu labels in store\n",
              static_cast<unsigned long long>(ingest.stats().reports_stored),
              static_cast<unsigned long long>(ingest.stats().stale_discarded),
              static_cast<unsigned long long>(ingest.stats().batches_flushed),
              static_cast<unsigned long long>(store.stats().labels));
  return ingest.tape();
}

/// Phase 2: replicate the tape across `tracks` spatially-offset labels,
/// interleaving the replicas per report (a dense multi-target feed).
std::vector<metrics::DecodedTrack> synthesize(
    const std::vector<metrics::DecodedTrack>& tape, int tracks) {
  std::vector<metrics::DecodedTrack> feed;
  feed.reserve(tape.size() * static_cast<std::size_t>(tracks));
  for (const metrics::DecodedTrack& report : tape) {
    for (int k = 0; k < tracks; ++k) {
      metrics::DecodedTrack clone = report;
      // Distinct label space per replica: bump the creator-node half of
      // the id — preserves distinctness of the original labels within one
      // replica and never collides across replicas.
      clone.label = LabelId{report.label.value() +
                            (static_cast<std::uint64_t>(k) << 32)};
      clone.position.x += static_cast<double>(k / 8) * 2.0;
      clone.position.y += static_cast<double>(k % 8) * 2.0;
      feed.push_back(clone);
    }
  }
  return feed;
}

struct LoadResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double qps = 0.0;
  double ingest_rps = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t bad_answers = 0;
  std::uint64_t labels_served = 0;
};

double percentile(const std::vector<std::uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ns.size() - 1));
  return static_cast<double>(sorted_ns[idx]) / 1000.0;
}

/// Phase 3: one measured point — writer replays `feed`, `clients` reader
/// threads run closed loops against the store for `seconds`.
LoadResult run_load(const std::vector<metrics::DecodedTrack>& feed,
                    int clients, double seconds, Rect query_bounds) {
  serve::StoreConfig store_config;
  store_config.shard_count = 64;
  store_config.ring_capacity = 512;
  serve::ShardedTrackStore store(store_config);

  // Distinct labels in the feed, for the query mix.
  std::vector<LabelId> labels;
  for (const metrics::DecodedTrack& r : feed) labels.push_back(r.label);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ingested{0};

  std::thread writer([&] {
    constexpr std::size_t kBatch = 32;  // = IngestConfig::max_batch
    std::vector<metrics::DecodedTrack> batch;
    batch.reserve(kBatch);
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < feed.size();) {
        batch.clear();
        for (; i < feed.size() && batch.size() < kBatch; ++i) {
          batch.push_back(feed[i]);
        }
        store.apply_batch(batch);
        ingested.fetch_add(batch.size(), std::memory_order_relaxed);
        if (stop.load(std::memory_order_relaxed)) break;
      }
    }
  });

  std::vector<std::vector<std::uint64_t>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> bad(static_cast<std::size_t>(clients), 0);
  std::vector<std::thread> readers;
  const auto started = Clock::now();
  for (int c = 0; c < clients; ++c) {
    readers.emplace_back([&, c] {
      std::mt19937_64 rng(0x5eed5eedull + static_cast<std::uint64_t>(c));
      auto& lat = latencies[static_cast<std::size_t>(c)];
      lat.reserve(1u << 20);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t roll = rng() % 100;
        const LabelId label = labels[rng() % labels.size()];
        const auto t0 = Clock::now();
        if (roll < 60) {
          const auto snap = store.latest(label);
          if (snap && snap->label != label) bad[c]++;
        } else if (roll < 90) {
          const double x = query_bounds.min.x +
                           static_cast<double>(rng() % 97) / 96.0 *
                               query_bounds.width();
          const double y = query_bounds.min.y +
                           static_cast<double>(rng() % 97) / 96.0 *
                               query_bounds.height();
          const Rect rect{{x - 2.0, y - 2.0}, {x + 2.0, y + 2.0}};
          const auto in_region = store.tracks_in_region(rect);
          for (const serve::TrackSnapshot& s : in_region) {
            if (!rect.contains(s.position)) bad[c]++;
          }
        } else {
          const auto points = store.history(label, Duration::seconds(2));
          for (const serve::TrackSnapshot& p : points) {
            if (p.label != label) bad[c]++;
          }
        }
        const auto t1 = Clock::now();
        lat.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  writer.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - started).count();

  std::vector<std::uint64_t> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());

  LoadResult result;
  result.queries = all.size();
  result.p50_us = percentile(all, 0.50);
  result.p99_us = percentile(all, 0.99);
  result.p999_us = percentile(all, 0.999);
  result.qps = static_cast<double>(all.size()) / elapsed;
  result.ingest_rps =
      static_cast<double>(ingested.load(std::memory_order_relaxed)) / elapsed;
  for (const std::uint64_t b : bad) result.bad_answers += b;
  result.labels_served = store.stats().labels;
  return result;
}

}  // namespace

int main() {
  et::bench::print_header(
      "Serve load: track-serving tier query latency",
      "ROADMAP item 3 (base station -> sharded service); "
      "arXiv 2407.00045 middleware architecture");

  const std::uint64_t seed = 42;
  const int tracks = env_int("ET_SERVE_TRACKS", 64);
  const double seconds = env_double("ET_SERVE_SECONDS", 1.0);

  const std::vector<metrics::DecodedTrack> tape = record_tape(seed);
  if (tape.empty()) {
    std::fprintf(stderr, "FAIL: recorded tape is empty — the tank run "
                         "delivered no track reports\n");
    return 1;
  }
  const std::vector<metrics::DecodedTrack> feed = synthesize(tape, tracks);
  // Synthetic positions span the offset grid; queries cover all of it.
  Rect bounds{{1e9, 1e9}, {-1e9, -1e9}};
  std::size_t expected_labels = 0;
  {
    std::vector<LabelId> distinct;
    for (const metrics::DecodedTrack& r : feed) {
      bounds.min.x = std::min(bounds.min.x, r.position.x);
      bounds.min.y = std::min(bounds.min.y, r.position.y);
      bounds.max.x = std::max(bounds.max.x, r.position.x);
      bounds.max.y = std::max(bounds.max.y, r.position.y);
      distinct.push_back(r.label);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    expected_labels = distinct.size();
  }
  std::printf("  feed: %zu reports across %zu labels; %.2f s per point\n",
              feed.size(), expected_labels, seconds);

  constexpr int kClientCounts[] = {1, 2, 4, 8};
  std::printf("\n  %7s | %9s %9s %9s | %11s %11s | %7s\n", "clients",
              "p50(us)", "p99(us)", "p999(us)", "queries/s", "ingest/s",
              "labels");
  et::metrics::JsonRows rows;
  bool answers_ok = true;
  for (const int clients : kClientCounts) {
    const LoadResult r = run_load(feed, clients, seconds, bounds);
    std::printf("  %7d | %9.2f %9.2f %9.2f | %11.0f %11.0f | %7llu\n",
                clients, r.p50_us, r.p99_us, r.p999_us, r.qps, r.ingest_rps,
                static_cast<unsigned long long>(r.labels_served));
    if (r.bad_answers != 0 || r.labels_served != expected_labels) {
      answers_ok = false;
      std::fprintf(stderr,
                   "FAIL: clients=%d bad_answers=%llu labels=%llu "
                   "(expected %zu)\n",
                   clients, static_cast<unsigned long long>(r.bad_answers),
                   static_cast<unsigned long long>(r.labels_served),
                   expected_labels);
    }
    char config[32];
    std::snprintf(config, sizeof(config), "clients=%d", clients);
    rows.add(config, seed, "p50_us", r.p50_us);
    rows.add(config, seed, "p99_us", r.p99_us);
    rows.add(config, seed, "p999_us", r.p999_us);
    rows.add(config, seed, "qps", r.qps);
    rows.add(config, seed, "ingest_rps", r.ingest_rps);
  }

  const char* dir = std::getenv("ET_BENCH_JSON_DIR");
  const std::string path =
      std::string(dir && *dir ? dir : ".") + "/BENCH_serve.json";
  if (et::metrics::write_file(path, rows.render())) {
    std::printf("\n  wrote %s\n", path.c_str());
  }

  if (!answers_ok) return 1;
  std::printf("\n  all query answers validated (label match, region "
              "containment, full label coverage)\n");
  return 0;
}
