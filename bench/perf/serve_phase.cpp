/// Serve phases: one writer and open-loop readers against a
/// ShardedTrackStore, fed by a seeded synthetic feed.
///
/// The feed is 1,024 labels random-walking over the dense field's geometry
/// (150 x 40 hops), each reporting every 250 ms of feed time, with epochs
/// bumped at seeded takeovers. A 64-feed-second tape is generated once and
/// replayed cyclically with shifted times and epochs, so stream item `i` is
/// a pure function of (seed, i) and every answer can be checked after the
/// timed window. Readers record compact fingerprints into preallocated
/// buffers; nothing is validated while the clock runs.

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "etbench.hpp"
#include "probes.hpp"
#include "serve/track_store.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace et::perf {

namespace {

struct ServeMix {
  const char* name;
  /// Reports per second; 0 runs the writer closed-loop (as fast as it can).
  double writer_rate;
  int readers;
  /// Queries per second per reader, open loop.
  double reader_rate;
};

// Reader rates sit near half of the closed-loop capacity measured on a
// 4-core host, so queueing stays bounded and the tail is a property of the
// store, not of an overloaded generator.
const ServeMix kMixes[] = {
    {"read_heavy", 100000.0, 2, 50000.0},
    {"write_heavy", 0.0, 1, 50000.0},
};

constexpr std::uint32_t kLabels = 1024;
constexpr std::uint64_t kTapeRounds = 256;  // 64 s of feed time
constexpr std::int64_t kRoundUs = 250'000;
constexpr double kWidth = 150.0;
constexpr double kHeight = 40.0;
constexpr double kStepHops = 0.25;          // 1 hop/s over one round
constexpr std::uint64_t kTakeoverOdds = 64;  // one epoch bump per 64 reports
constexpr std::size_t kBatch = 32;
constexpr std::size_t kRingCapacity = 256;
constexpr Duration kHistoryWindow = Duration::seconds(2);
constexpr double kRegionHalf = 2.0;
constexpr std::uint64_t kSpanSample = 64;
// The load runs this long before measurement starts, so thread start-up
// and cold caches stay out of the numbers.
constexpr std::int64_t kWarmupNs = 1'000'000'000;
// Latency and age percentiles are taken per window of this length and the
// run reports their median, so one descheduled millisecond moves one
// window, not the run.
constexpr std::int64_t kWindowNs = 1'000'000'000;

const ServeMix& find_mix(const std::string& name) {
  for (const ServeMix& mix : kMixes) {
    if (name == mix.name) return mix;
  }
  throw std::invalid_argument("unknown serve mix '" + name + "'");
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// 32-bit fingerprint of a served report's payload.
std::uint32_t fingerprint(Vec2 position, Time time, std::uint64_t epoch) {
  std::uint64_t h = splitmix(std::bit_cast<std::uint64_t>(position.x));
  h = splitmix(h ^ std::bit_cast<std::uint64_t>(position.y));
  h = splitmix(h ^ static_cast<std::uint64_t>(time.to_micros()));
  h = splitmix(h ^ epoch);
  return static_cast<std::uint32_t>(h);
}

class Feed {
 public:
  explicit Feed(std::uint64_t seed) {
    Rng rng = Rng(seed).fork("serve-feed");
    labels_.reserve(kLabels);
    std::vector<Vec2> at(kLabels), goal(kLabels);
    std::vector<std::uint64_t> epoch(kLabels, 1);
    for (std::uint32_t p = 0; p < kLabels; ++p) {
      // Creator node in the high half, feed index + 1 in the low half: the
      // index is recoverable from any served label.
      labels_.push_back(
          LabelId::make(NodeId{rng.next_below(6000)}, p + 1));
      at[p] = {rng.uniform(0.0, kWidth), rng.uniform(0.0, kHeight)};
      goal[p] = {rng.uniform(0.0, kWidth), rng.uniform(0.0, kHeight)};
    }
    tape_.reserve(kTapeRounds * kLabels);
    for (std::uint64_t round = 0; round < kTapeRounds; ++round) {
      for (std::uint32_t p = 0; p < kLabels; ++p) {
        const double dx = goal[p].x - at[p].x;
        const double dy = goal[p].y - at[p].y;
        const double dist = std::sqrt(dx * dx + dy * dy);
        if (dist <= kStepHops) {
          at[p] = goal[p];
          goal[p] = {rng.uniform(0.0, kWidth), rng.uniform(0.0, kHeight)};
        } else {
          at[p] = {at[p].x + dx / dist * kStepHops,
                   at[p].y + dy / dist * kStepHops};
        }
        if (rng.next_below(kTakeoverOdds) == 0) ++epoch[p];
        metrics::DecodedTrack report;
        report.time = Time::micros(static_cast<std::int64_t>(round) * kRoundUs);
        report.label = labels_[p];
        report.source = labels_[p].creator();
        report.position = at[p];
        report.epoch = epoch[p];
        tape_.push_back(report);
      }
    }
    epoch_span_ = epoch;
  }

  /// Items in one pass of the tape (the pre-fill).
  std::uint64_t pass() const { return tape_.size(); }

  /// Stream item `index`; the tape repeats with times and epochs shifted so
  /// both keep increasing per label.
  metrics::DecodedTrack item(std::uint64_t index) const {
    const std::uint64_t round = index / kLabels;
    const std::uint64_t cycle = round / kTapeRounds;
    metrics::DecodedTrack report =
        tape_[(round % kTapeRounds) * kLabels + index % kLabels];
    report.time = report.time + Duration::micros(static_cast<std::int64_t>(
                                    cycle * kTapeRounds) * kRoundUs);
    report.epoch += cycle * epoch_span_[index % kLabels];
    return report;
  }

  /// Stream index of the `seq`-th report (1-based) of label `p`.
  static std::uint64_t index_of(std::uint32_t p, std::uint64_t seq) {
    return (seq - 1) * kLabels + p;
  }

  LabelId label(std::uint32_t p) const { return labels_[p]; }

 private:
  std::vector<metrics::DecodedTrack> tape_;
  std::vector<std::uint64_t> epoch_span_;
  std::vector<LabelId> labels_;
};

enum class Kind : std::uint8_t { kLatest, kRegion, kHistory };

/// Query `i` of reader `reader`: a pure function, regenerated during
/// validation. 60% latest, 30% region, 10% history.
struct Query {
  Kind kind;
  std::uint32_t label;
  Rect rect;
};

Query query_of(std::uint64_t seed, int reader, std::uint64_t i) {
  const std::uint64_t h =
      splitmix(seed ^ splitmix((static_cast<std::uint64_t>(reader) << 48) ^ i));
  const std::uint64_t roll = h % 100;
  Query q;
  q.kind = roll < 60 ? Kind::kLatest : roll < 90 ? Kind::kRegion
                                                  : Kind::kHistory;
  q.label = static_cast<std::uint32_t>((h >> 8) % kLabels);
  const double x = static_cast<double>((h >> 24) % 1501) / 10.0;
  const double y = static_cast<double>((h >> 40) % 401) / 10.0;
  q.rect = Rect{{x - kRegionHalf, y - kRegionHalf},
                {x + kRegionHalf, y + kRegionHalf}};
  return q;
}

/// What a reader keeps per query (fields a/b/c depend on the kind):
///   latest:  a = seq (0 = missing), b = payload fingerprint
///   region:  a = offset into the reader's hit list, b = hit count
///   history: a = first seq, b = last seq, c = points returned
struct QueryRecord {
  std::uint32_t late_ns;
  std::uint32_t latency_ns;
  std::uint32_t a;
  std::uint32_t b;
  std::uint32_t c;
};

struct BatchRecord {
  std::int64_t start_ns;
  std::uint32_t apply_ns;
  std::uint32_t lag_ns;
};

std::uint32_t clamp32(std::int64_t v) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(v, 0, UINT32_MAX));
}

/// Busy-waits until `deadline`: open-loop intervals are microseconds, far
/// below sleep granularity, and yielding lets the scheduler park the
/// generator for milliseconds.
void wait_until(std::int64_t deadline) {
  while (now_ns() < deadline) {
  }
}

/// Samples split into the measurement windows of a run.
class Windowed {
 public:
  Windowed(std::int64_t start_ns, std::size_t windows)
      : start_ns_(start_ns), samples_(std::max<std::size_t>(1, windows)) {}

  /// Adds a sample observed at `at_ns`; samples before the first window
  /// (warm-up) are dropped, later ones go to the last window.
  void add(std::int64_t at_ns, std::uint32_t value) {
    if (at_ns < start_ns_) return;
    const auto w = static_cast<std::size_t>((at_ns - start_ns_) / kWindowNs);
    samples_[std::min(w, samples_.size() - 1)].push_back(value);
  }

  /// Median over windows of each window's `p`-th percentile.
  double median_percentile(double p) const {
    std::vector<double> per_window;
    for (const auto& window : samples_) {
      if (!window.empty()) per_window.push_back(percentile(window, p));
    }
    return median(per_window);
  }

 private:
  std::int64_t start_ns_;
  std::vector<std::vector<std::uint32_t>> samples_;
};

/// Reserves and touches `n` elements, so the buffer's resident size does not
/// depend on how much of it a run fills (peak_rss_mb must not grow with
/// store speed).
template <typename T>
void touch_capacity(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  v.clear();
}

struct Reader {
  SpanBuffer spans;
  std::vector<QueryRecord> records;
  std::vector<std::uint64_t> hits;  // (feed index << 32) | seq

  Reader(std::uint32_t tid, std::size_t queries)
      : spans(tid, queries / kSpanSample + 16) {
    records.reserve(queries);
    touch_capacity(hits, queries * 4);
  }
};

}  // namespace

PhaseResult run_serve(const std::string& mix_name,
                      const PhaseOptions& options) {
  const ServeMix& mix = find_mix(mix_name);
  const std::int64_t origin = now_ns();
  PhaseResult result;
  util::Json& metrics = result.metrics;
  SpanBuffer main_spans(0, 64);

  const Feed feed(options.seed);
  const std::uint64_t prefill = feed.pass();

  // Set up kSetups times: build the store and apply one pass of the feed.
  serve::StoreConfig store_config;
  store_config.shard_count = 64;
  store_config.ring_capacity = kRingCapacity;
  std::vector<double> setup_s;
  std::unique_ptr<serve::ShardedTrackStore> store;
  std::vector<metrics::DecodedTrack> batch(kBatch);
  for (int k = 0; k < kSetups; ++k) {
    store.reset();
    const std::int64_t start = now_ns();
    store = std::make_unique<serve::ShardedTrackStore>(store_config);
    for (std::uint64_t i = 0; i < prefill; i += kBatch) {
      for (std::size_t j = 0; j < kBatch; ++j) batch[j] = feed.item(i + j);
      store->apply_batch(batch);
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    main_spans.add("setup.store_fill", start, now_ns());
  }
  metrics.set("setup_s", median(setup_s));
  metrics.set("setup.store_fill_s", median(setup_s));

  const bool paced = mix.writer_rate > 0.0;
  const auto warmup_ns =
      static_cast<std::int64_t>(static_cast<double>(kWarmupNs) *
                                options.span_scale);
  const std::size_t queries_per_reader =
      static_cast<std::size_t>(mix.reader_rate *
                               (options.seconds + warmup_ns / 1e9)) +
      16;
  std::vector<std::unique_ptr<Reader>> readers;
  for (int r = 0; r < mix.readers; ++r) {
    readers.push_back(std::make_unique<Reader>(2 + r, queries_per_reader));
  }
  SpanBuffer writer_spans(1, 1 << 16);
  std::vector<BatchRecord> batches;
  touch_capacity(batches,
                 static_cast<std::size_t>((paced ? mix.writer_rate : 8e6) *
                                          (options.seconds + warmup_ns / 1e9) /
                                          kBatch) +
                     16);

  // The load starts at t0 (threads get 5 ms to start); measurement covers
  // [t_measure, t_end).
  const std::int64_t t0 = now_ns() + 5'000'000;
  const std::int64_t t_measure = t0 + warmup_ns;
  const std::int64_t t_end =
      t_measure + static_cast<std::int64_t>(options.seconds * 1e9);
  main_spans.add("serve.warmup", t0, t_measure);
  const std::int64_t window_span =
      main_spans.add("serve.window", t_measure, t_end);
  const bool traced = options.traced;
  serve::ShardedTrackStore& s = *store;

  std::thread writer([&] {
    std::vector<metrics::DecodedTrack> out(kBatch);
    std::uint64_t next = prefill;
    for (std::uint64_t b = 0;; ++b) {
      const std::int64_t due =
          paced ? scheduled_ns(t0, b * kBatch, mix.writer_rate) : t0;
      if (paced) {
        if (due >= t_end) break;
        wait_until(due);
      }
      const std::int64_t start = now_ns();
      if (!paced && start >= t_end) break;
      for (std::size_t j = 0; j < kBatch; ++j) out[j] = feed.item(next + j);
      const std::int64_t apply_start = now_ns();
      s.apply_batch(out);
      const std::int64_t end = now_ns();
      batches.push_back(
          BatchRecord{start, clamp32(end - apply_start),
                      paced ? clamp32(lateness_ns(due, start)) : 0});
      if (traced && b % kSpanSample == 0) {
        writer_spans.add("store.apply_batch", apply_start, end, window_span);
      }
      next += kBatch;
    }
  });

  std::vector<std::thread> threads;
  for (int r = 0; r < mix.readers; ++r) {
    threads.emplace_back([&, r] {
      Reader& reader = *readers[static_cast<std::size_t>(r)];
      for (std::uint64_t i = 0;; ++i) {
        const std::int64_t sched = scheduled_ns(t0, i, mix.reader_rate);
        if (sched >= t_end) break;
        const Query q = query_of(options.seed, r, i);
        wait_until(sched);
        const std::int64_t start = now_ns();
        QueryRecord rec{};
        const LabelId label = feed.label(q.label);
        const char* name = "store.latest";
        switch (q.kind) {
          case Kind::kLatest:
            if (const auto snap = s.latest(label)) {
              rec.a = static_cast<std::uint32_t>(snap->seq);
              rec.b = fingerprint(snap->position, snap->time, snap->epoch);
            }
            break;
          case Kind::kRegion: {
            name = "store.tracks_in_region";
            const auto in_region = s.tracks_in_region(q.rect);
            rec.a = static_cast<std::uint32_t>(reader.hits.size());
            rec.b = static_cast<std::uint32_t>(in_region.size());
            for (const serve::TrackSnapshot& snap : in_region) {
              reader.hits.push_back(
                  (static_cast<std::uint64_t>(snap.label.sequence() - 1)
                   << 32) |
                  (snap.seq & 0xffffffffull));
            }
            break;
          }
          case Kind::kHistory: {
            name = "store.history";
            const auto points = s.history(label, kHistoryWindow);
            if (!points.empty()) {
              rec.a = static_cast<std::uint32_t>(points.front().seq);
              rec.b = static_cast<std::uint32_t>(points.back().seq);
            }
            rec.c = static_cast<std::uint32_t>(points.size());
            break;
          }
        }
        const std::int64_t end = now_ns();
        rec.late_ns = clamp32(lateness_ns(sched, start));
        rec.latency_ns = clamp32(open_loop_latency_ns(sched, end));
        reader.records.push_back(rec);
        if (traced && i % kSpanSample == 0) {
          reader.spans.add(name, start, end, window_span);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  writer.join();

  // --- Everything below runs after the timed window. ---
  const auto windows = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (t_end - t_measure) / kWindowNs));
  const std::uint64_t applied = prefill + batches.size() * kBatch;
  const auto due_of = [&](std::uint64_t index) -> std::int64_t {
    if (index < prefill) return t0;
    if (paced) return paced_due_ns(t0, index, prefill, mix.writer_rate);
    return batches[(index - prefill) / kBatch].start_ns;
  };
  const auto label_count = [&](std::uint32_t p) -> std::uint64_t {
    return applied > p ? (applied - p + kLabels - 1) / kLabels : 0;
  };

  // Window statistics are gated; whole-run distributions are per-layer.
  Windowed window_latency(t_measure, windows), window_age(t_measure, windows);
  std::vector<std::uint32_t> latency, late, latest_ns, region_ns, history_ns;
  std::uint64_t region_queries = 0, region_hits = 0;
  for (int r = 0; r < mix.readers; ++r) {
    const Reader& reader = *readers[static_cast<std::size_t>(r)];
    std::vector<std::uint32_t> last_seen(kLabels, 0);
    for (std::uint64_t i = 0; i < reader.records.size(); ++i) {
      const QueryRecord& rec = reader.records[i];
      const Query q = query_of(options.seed, r, i);
      const std::int64_t sched = scheduled_ns(t0, i, mix.reader_rate);
      const std::int64_t completed = sched + rec.latency_ns;
      const bool measured = sched >= t_measure;
      const std::uint32_t service = rec.latency_ns - rec.late_ns;
      ++result.attempted;
      if (measured) {
        window_latency.add(sched, rec.latency_ns);
        latency.push_back(rec.latency_ns);
        late.push_back(rec.late_ns);
        (q.kind == Kind::kLatest   ? latest_ns
         : q.kind == Kind::kRegion ? region_ns
                                   : history_ns)
            .push_back(service);
      }
      switch (q.kind) {
        case Kind::kLatest: {
          if (rec.a == 0 || rec.a > label_count(q.label) ||
              rec.a < last_seen[q.label]) {
            result.fail("latest: bad seq for label " +
                        std::to_string(q.label));
            break;
          }
          last_seen[q.label] = rec.a;
          const std::uint64_t index = Feed::index_of(q.label, rec.a);
          const metrics::DecodedTrack expect = feed.item(index);
          if (rec.b != fingerprint(expect.position, expect.time,
                                   expect.epoch)) {
            result.fail("latest: payload mismatch for label " +
                        std::to_string(q.label));
            break;
          }
          window_age.add(sched,
                         clamp32(served_age_ns(due_of(index), completed)));
          break;
        }
        case Kind::kRegion: {
          ++region_queries;
          region_hits += rec.b;
          std::uint64_t previous = 0;
          for (std::uint32_t k = 0; k < rec.b; ++k) {
            const std::uint64_t hit = reader.hits[rec.a + k];
            const auto p = static_cast<std::uint32_t>(hit >> 32);
            const std::uint64_t seq = hit & 0xffffffffull;
            if (p >= kLabels || seq == 0 || seq > label_count(p) ||
                (k > 0 && feed.label(p).value() <= previous) ||
                !q.rect.contains(feed.item(Feed::index_of(p, seq)).position)) {
              result.fail("region: bad hit in query " + std::to_string(i));
              break;
            }
            previous = feed.label(p).value();
          }
          break;
        }
        case Kind::kHistory: {
          const std::uint64_t first = rec.a, last = rec.b;
          if (first == 0 || last < first || rec.c != last - first + 1 ||
              last > label_count(q.label)) {
            result.fail("history: bad range for label " +
                        std::to_string(q.label));
            break;
          }
          const Time cutoff =
              feed.item(Feed::index_of(q.label, last)).time - kHistoryWindow;
          const bool first_inside =
              feed.item(Feed::index_of(q.label, first)).time >= cutoff;
          const bool complete =
              first == 1 || rec.c >= kRingCapacity ||
              feed.item(Feed::index_of(q.label, first - 1)).time < cutoff;
          if (!first_inside || !complete) {
            result.fail("history: window mismatch for label " +
                        std::to_string(q.label));
          }
          break;
        }
      }
    }
  }

  // The final store must hold each label's last applied report.
  result.attempted += batches.size();
  for (std::uint32_t p = 0; p < kLabels; ++p) {
    const auto snap = s.latest(feed.label(p));
    const std::uint64_t seq = label_count(p);
    const metrics::DecodedTrack expect = feed.item(Feed::index_of(p, seq));
    if (!snap || snap->seq != seq || snap->position.x != expect.position.x ||
        snap->position.y != expect.position.y || snap->epoch != expect.epoch) {
      result.fail("final store: label " + std::to_string(p) +
                  " differs from the feed");
    }
  }
  const serve::StoreStats stats = s.stats();
  if (stats.reports_applied != applied) {
    result.fail("final store: applied count differs from the feed");
  }

  // Ingest rate between the first and the last batch started in the
  // measurement window.
  std::vector<std::uint32_t> apply_ns, lag_ns;
  std::int64_t first_start = 0, last_start = 0;
  for (const BatchRecord& b : batches) {
    if (b.start_ns < t_measure) continue;
    if (apply_ns.empty()) first_start = b.start_ns;
    last_start = b.start_ns;
    apply_ns.push_back(b.apply_ns);
    lag_ns.push_back(b.lag_ns);
  }
  if (apply_ns.size() < 2 || last_start == first_start) {
    result.fail("fewer than two batches started in the measurement window");
    return result;
  }
  const double measured_reports =
      static_cast<double>(apply_ns.size() * kBatch);
  std::sort(latency.begin(), latency.end());
  const TailRank tail = tail_rank(latency.size());
  const auto us = [](double ns) { return ns / 1e3; };
  metrics.set("serve.query_p50_us", us(window_latency.median_percentile(50)));
  metrics.set("serve.query_p99_us", us(window_latency.median_percentile(99)));
  metrics.set("serve.served_age_p99_ms",
              window_age.median_percentile(99) / 1e6);
  metrics.set("serve.ingest_rps",
              static_cast<double>((apply_ns.size() - 1) * kBatch) /
                  (static_cast<double>(last_start - first_start) / 1e9));
  metrics.set("serve.queries", static_cast<double>(latency.size()));
  metrics.set("serve.query_tail_pct", tail.percentile);
  metrics.set("serve.query_tail_us",
              us(percentile_sorted(latency, tail.percentile)));
  metrics.set("serve.reports_applied", measured_reports);
  metrics.set("serve.store.apply_batch_us_p50", us(percentile(apply_ns, 50)));
  metrics.set("serve.store.apply_batch_us_p99", us(percentile(apply_ns, 99)));
  metrics.set("serve.store.latest_us_p99", us(percentile(latest_ns, 99)));
  metrics.set("serve.store.region_us_p99", us(percentile(region_ns, 99)));
  metrics.set("serve.store.history_us_p99", us(percentile(history_ns, 99)));
  metrics.set("serve.store.region_hits_mean",
              region_queries == 0 ? 0.0
                                  : static_cast<double>(region_hits) /
                                        static_cast<double>(region_queries));
  metrics.set("serve.store.points_evicted",
              static_cast<double>(stats.points_evicted));
  metrics.set("serve.writer_lag_ms_p99", percentile(lag_ns, 99) / 1e6);
  metrics.set("serve.gen_late_us_p99", us(percentile(late, 99)));
  metrics.set("proc.cpu_s", process_cpu_s());
  metrics.set("proc.wall_s", static_cast<double>(now_ns() - origin) / 1e9);
  metrics.set("peak_rss_mb", peak_rss_mb());

  if (traced && !options.trace_out.empty()) {
    std::vector<const SpanBuffer*> buffers = {&main_spans, &writer_spans};
    for (const auto& reader : readers) buffers.push_back(&reader->spans);
    if (!write_chrome_trace(options.trace_out, buffers, origin)) {
      result.fail("cannot write " + options.trace_out);
    }
  }
  return result;
}

}  // namespace et::perf
