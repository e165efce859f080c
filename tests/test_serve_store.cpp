#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "metrics/track_decode.hpp"
#include "metrics/track_recorder.hpp"
#include "serve/ingest.hpp"
#include "serve/track_store.hpp"
#include "test_world.hpp"

/// Serving-tier data plane: the sharded track store's query semantics
/// (latest slot, history window, ring eviction, region scans) and the
/// ingest path's fencing/batching, driven through a real simulated base
/// station.
namespace et::test {
namespace {

metrics::DecodedTrack report(LabelId label, double x, double y,
                             double at_seconds, std::uint64_t epoch = 1) {
  metrics::DecodedTrack d;
  d.time = Time::origin() + Duration::seconds(at_seconds);
  d.label = label;
  d.source = NodeId{7};
  d.position = {x, y};
  d.epoch = epoch;
  return d;
}

TEST(ServeStore, UnknownLabelIsEmpty) {
  serve::ShardedTrackStore store;
  EXPECT_FALSE(store.latest(LabelId{42}).has_value());
  EXPECT_TRUE(store.history(LabelId{42}, Duration::seconds(10)).empty());
  EXPECT_EQ(store.stats().labels, 0u);
}

TEST(ServeStore, LatestTracksNewestReportAndSequence) {
  serve::ShardedTrackStore store;
  const LabelId label = LabelId::make(NodeId{3}, 1);
  store.apply_batch({report(label, 1.0, 2.0, 0.0),
                     report(label, 1.5, 2.0, 0.5),
                     report(label, 2.0, 2.5, 1.0)});

  const auto snap = store.latest(label);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->label, label);
  EXPECT_DOUBLE_EQ(snap->position.x, 2.0);
  EXPECT_DOUBLE_EQ(snap->position.y, 2.5);
  EXPECT_EQ(snap->time, Time::origin() + Duration::seconds(1));
  EXPECT_EQ(snap->seq, 3u) << "seq counts updates to the label";
  EXPECT_EQ(store.stats().reports_applied, 3u);
  EXPECT_EQ(store.stats().labels, 1u);
}

TEST(ServeStore, HistoryWindowIsAnchoredAtTheNewestPoint) {
  serve::ShardedTrackStore store;
  const LabelId label = LabelId::make(NodeId{3}, 1);
  for (int i = 0; i < 5; ++i) {
    store.apply_batch({report(label, static_cast<double>(i), 0.0,
                              static_cast<double>(i))});
  }
  // Newest point is t=4s; a 2 s window keeps t in [2s, 4s], oldest first.
  const auto window = store.history(label, Duration::seconds(2));
  ASSERT_EQ(window.size(), 3u);
  EXPECT_DOUBLE_EQ(window[0].position.x, 2.0);
  EXPECT_DOUBLE_EQ(window[1].position.x, 3.0);
  EXPECT_DOUBLE_EQ(window[2].position.x, 4.0);
  // A window wider than the retained span returns everything.
  EXPECT_EQ(store.history(label, Duration::seconds(100)).size(), 5u);
}

TEST(ServeStore, RingEvictsOldestPoints) {
  serve::StoreConfig config;
  config.ring_capacity = 4;
  serve::ShardedTrackStore store(config);
  const LabelId label = LabelId::make(NodeId{3}, 1);
  std::vector<metrics::DecodedTrack> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(
        report(label, static_cast<double>(i), 0.0, static_cast<double>(i)));
  }
  store.apply_batch(batch);

  const auto all = store.history(label, Duration::seconds(100));
  ASSERT_EQ(all.size(), 4u) << "ring keeps the newest ring_capacity points";
  EXPECT_DOUBLE_EQ(all.front().position.x, 2.0);
  EXPECT_DOUBLE_EQ(all.back().position.x, 5.0);
  EXPECT_EQ(store.stats().points_evicted, 2u);
  // The latest slot is unaffected by eviction.
  EXPECT_DOUBLE_EQ(store.latest(label)->position.x, 5.0);
}

TEST(ServeStore, InterleavedLabelsKeepBatchOrder) {
  // One batch interleaves four labels over 64 shards: apply_batch groups
  // it by shard, and each label must still see its reports in batch order.
  serve::StoreConfig config;
  config.shard_count = 64;
  serve::ShardedTrackStore store(config);
  std::vector<metrics::DecodedTrack> batch;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const double x = static_cast<double>(i);
    batch.push_back(report(LabelId::make(NodeId{i % 4}, 7), x, 0.0, x / 1e3));
  }
  store.apply_batch(batch);
  for (std::uint64_t creator = 0; creator < 4; ++creator) {
    const LabelId label = LabelId::make(NodeId{creator}, 7);
    const auto history = store.history(label, Duration::seconds(1));
    ASSERT_EQ(history.size(), 8u);
    for (std::size_t k = 0; k < history.size(); ++k) {
      EXPECT_DOUBLE_EQ(history[k].position.x,
                       static_cast<double>(4 * k + creator));
    }
    EXPECT_EQ(store.latest(label)->seq, 8u);
  }
  EXPECT_EQ(store.stats().reports_applied, 32u);
}

/// A snapshot as comparable fields: label, position, time, epoch, seq.
using SnapshotFields =
    std::tuple<std::uint64_t, double, double, std::int64_t, std::uint64_t,
               std::uint64_t>;

SnapshotFields fields(const serve::TrackSnapshot& s) {
  return {s.label.value(), s.position.x, s.position.y, s.time.to_micros(),
          s.epoch,         s.seq};
}

TEST(ServeStore, HistoryRebuildsEveryPointFromAReference) {
  // History points keep position, time and epoch; history() rebuilds each
  // one's label and seq. Five interleaved labels get 3 x capacity reports
  // each, in batches that straddle labels and shards; after every batch,
  // every label's history, whole and windowed, must equal the snapshots a
  // reference built from the applied reports.
  constexpr std::uint64_t kLabels = 5;
  constexpr std::size_t kBatch = 13;
  for (const std::size_t capacity : {1, 7, 256}) {
    SCOPED_TRACE("ring capacity " + std::to_string(capacity));
    serve::StoreConfig config;
    config.shard_count = 4;
    config.ring_capacity = capacity;
    serve::ShardedTrackStore store(config);
    std::map<std::uint64_t, std::vector<serve::TrackSnapshot>> applied;

    const std::uint64_t total = kLabels * 3 * capacity;
    std::vector<metrics::DecodedTrack> batch;
    for (std::uint64_t n = 0; n < total; ++n) {
      const LabelId label = LabelId::make(NodeId{n % kLabels}, 3);
      const double at = static_cast<double>(n) / 100.0;
      batch.push_back(report(label, static_cast<double>(n),
                             static_cast<double>(n % 11), at, 1 + n / 17));
      std::vector<serve::TrackSnapshot>& reports = applied[label.value()];
      reports.push_back(serve::TrackSnapshot{
          label, batch.back().position, batch.back().time,
          batch.back().epoch, reports.size() + 1});
      if (batch.size() < kBatch && n + 1 < total) continue;
      store.apply_batch(batch);
      batch.clear();

      for (const auto& [value, points] : applied) {
        const LabelId label_k{value};
        const std::size_t kept = std::min(points.size(), capacity);
        for (const Duration window :
             {Duration::seconds(1000), Duration::millis(200)}) {
          const Time cutoff = points.back().time - window;
          std::vector<SnapshotFields> expected;
          for (std::size_t i = points.size() - kept; i < points.size(); ++i) {
            if (points[i].time >= cutoff) expected.push_back(fields(points[i]));
          }
          std::vector<SnapshotFields> got;
          for (const serve::TrackSnapshot& s : store.history(label_k, window)) {
            got.push_back(fields(s));
          }
          ASSERT_EQ(got, expected) << "label " << value << " after report "
                                   << n << ", window " << window.to_string();
        }
      }
    }
    EXPECT_EQ(store.stats().points_evicted, total - kLabels * capacity);
  }
}

TEST(ServeStore, RegionQueryFiltersAndSortsByLabel) {
  serve::ShardedTrackStore store;
  const LabelId a = LabelId::make(NodeId{9}, 1);
  const LabelId b = LabelId::make(NodeId{2}, 5);
  const LabelId c = LabelId::make(NodeId{4}, 2);
  store.apply_batch({report(a, 1.0, 1.0, 0.0), report(b, 2.0, 2.0, 0.0),
                     report(c, 9.0, 9.0, 0.0)});

  const auto in_region =
      store.tracks_in_region(Rect{{0.0, 0.0}, {3.0, 3.0}});
  ASSERT_EQ(in_region.size(), 2u) << "c is outside the rect";
  EXPECT_LT(in_region[0].label, in_region[1].label)
      << "region answers are sorted by label id";
  // Only the *latest* position matters: move a out of the rect.
  store.apply_batch({report(a, 8.0, 8.0, 1.0)});
  EXPECT_EQ(store.tracks_in_region(Rect{{0.0, 0.0}, {3.0, 3.0}}).size(), 1u);
}

TEST(ServeStore, ShardCountRoundsUpToPowerOfTwo) {
  serve::StoreConfig config;
  config.shard_count = 5;
  serve::ShardedTrackStore store(config);
  EXPECT_EQ(store.shard_count(), 8u);
}

TEST(ServeStore, EpochFenceDiscardsStaleLeaderReports) {
  metrics::EpochFence fence;
  const LabelId label = LabelId::make(NodeId{1}, 1);
  EXPECT_TRUE(fence.admit(label, 3));
  EXPECT_FALSE(fence.admit(label, 2)) << "older epoch must be fenced";
  EXPECT_TRUE(fence.admit(label, 3)) << "same epoch is fine";
  EXPECT_TRUE(fence.admit(label, 4));
  EXPECT_EQ(fence.stale_discarded(), 1u);
}

/// End-to-end ingest: a reporter object on the blob leader streams `track`
/// messages to node 0; the serving tier must see them all, batch them, and
/// serve the newest position.
TEST(ServeIngest, SimulatedReportsReachTheStore) {
  TestWorld::Options options;
  options.mutate_spec = [](core::ContextTypeSpec& spec) {
    core::ObjectSpec reporter;
    reporter.name = "r";
    core::MethodSpec track;
    track.name = "track";
    track.invocation.kind = core::InvocationSpec::Kind::kTimer;
    track.invocation.period = Duration::seconds(1);
    track.body = [](core::TrackingContext& ctx) {
      if (auto where = ctx.read_vector("where")) {
        ctx.send_to_node(NodeId{0}, "track", {where->x, where->y});
      }
    };
    core::MethodSpec noise;
    noise.name = "noise";
    noise.invocation.kind = core::InvocationSpec::Kind::kTimer;
    noise.invocation.period = Duration::seconds(1);
    noise.body = [](core::TrackingContext& ctx) {
      ctx.send_to_node(NodeId{0}, "chatter", {1.0});
    };
    reporter.methods.push_back(std::move(track));
    reporter.methods.push_back(std::move(noise));
    spec.objects.push_back(std::move(reporter));
  };
  TestWorld world(options);
  serve::ShardedTrackStore store;
  serve::IngestConfig config;
  config.record_tape = true;
  serve::TrackIngest ingest(world.system(), NodeId{0}, store, config);

  world.add_blob({3.5, 1.0});
  world.run(8);
  ingest.flush();

  const auto stats = ingest.stats();
  EXPECT_GE(stats.reports_seen, 5u);
  EXPECT_EQ(stats.reports_stored, stats.reports_seen - stats.stale_discarded);
  EXPECT_EQ(store.stats().reports_applied, stats.reports_stored);
  EXPECT_GE(stats.batches_flushed, 1u);
  EXPECT_EQ(ingest.tape().size(), stats.reports_stored);

  ASSERT_EQ(store.stats().labels, 1u) << "one blob, one served track";
  const auto in_region =
      store.tracks_in_region(Rect{{0.0, 0.0}, {7.0, 2.0}});
  ASSERT_EQ(in_region.size(), 1u);
  const auto snap = store.latest(in_region.front().label);
  ASSERT_TRUE(snap.has_value());
  EXPECT_NEAR(snap->position.x, 3.5, 1.2) << "served position is the blob's";
  EXPECT_EQ(snap->seq, stats.reports_stored);
  // The history ring holds the whole (short) run.
  EXPECT_EQ(store.history(snap->label, Duration::seconds(100)).size(),
            stats.reports_stored);
}

/// Registering the serving tier must not detach other base-station
/// consumers: handlers fan out, so a TrackRecorder and a TrackIngest can
/// observe the same message stream side by side.
TEST(ServeIngest, CoexistsWithTrackRecorder) {
  TestWorld::Options options;
  options.mutate_spec = [](core::ContextTypeSpec& spec) {
    core::ObjectSpec reporter;
    reporter.name = "r";
    core::MethodSpec track;
    track.name = "track";
    track.invocation.kind = core::InvocationSpec::Kind::kTimer;
    track.invocation.period = Duration::seconds(1);
    track.body = [](core::TrackingContext& ctx) {
      if (auto where = ctx.read_vector("where")) {
        ctx.send_to_node(NodeId{0}, "track", {where->x, where->y});
      }
    };
    reporter.methods.push_back(std::move(track));
    spec.objects.push_back(std::move(reporter));
  };
  TestWorld world(options);
  const TargetId target = world.add_blob({3.5, 1.0});
  metrics::TrackRecorder recorder(world.system(), NodeId{0}, target);
  serve::ShardedTrackStore store;
  serve::TrackIngest ingest(world.system(), NodeId{0}, store);

  world.run(8);
  ingest.flush();

  EXPECT_GE(recorder.report_count(), 5u) << "recorder still sees reports";
  EXPECT_EQ(ingest.stats().reports_seen, recorder.report_count())
      << "both consumers observe the identical message stream";
  EXPECT_EQ(store.stats().reports_applied, recorder.report_count());
}

}  // namespace
}  // namespace et::test
