#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "metrics/track_decode.hpp"
#include "util/geometry.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

/// Sharded in-memory track store — the serving tier's data plane.
///
/// The base station stops being a log and becomes a service: the ingest
/// path (serve/ingest.hpp) applies batches of decoded track reports from
/// the simulation side, while any number of client threads answer queries
/// concurrently — `latest(label)`, `history(label, window)`,
/// `tracks_in_region(rect)`. Tracks are sharded by context label (a label's
/// whole history lives in one shard, so a query touches exactly one shard
/// and ingest batches amortize one lock acquisition across all reports
/// that hash to it). Each label keeps a latest-position snapshot slot,
/// updated in place, plus a ring of recent points for history queries. A
/// ring point holds only what differs between points (32 B: position,
/// time, epoch); history() rebuilds its label and seq from the entry.
///
/// Concurrency contract: one writer (apply_batch, called from the ingest
/// path) and any number of reader threads. Shards are guarded by
/// shared_mutexes — readers take a shard's shared lock for the duration of
/// one query, the writer takes the exclusive lock once per (shard, batch).
/// A snapshot read copies the fixed-size latest slot only; it never walks
/// or copies the ring.
namespace et::serve {

/// The latest-position snapshot of one label. `seq` counts updates to the
/// label (1-based), so pollers can cheaply detect "no change since last
/// read" and tests can assert a served track never regresses.
struct TrackSnapshot {
  LabelId label;
  Vec2 position;
  Time time;              // simulation time of the report
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
};

struct StoreConfig {
  /// Number of shards; rounded up to a power of two. Sized for the reader
  /// fleet, not the data: more shards = less reader/writer contention.
  std::size_t shard_count = 16;
  /// Recent points retained per label for history queries; older points
  /// are evicted ring-wise.
  std::size_t ring_capacity = 256;
};

struct StoreStats {
  std::uint64_t reports_applied = 0;
  std::uint64_t batches_applied = 0;
  std::uint64_t points_evicted = 0;
  std::uint64_t labels = 0;
};

class ShardedTrackStore {
 public:
  explicit ShardedTrackStore(StoreConfig config = {});

  ShardedTrackStore(const ShardedTrackStore&) = delete;
  ShardedTrackStore& operator=(const ShardedTrackStore&) = delete;

  // --- Writer side (the ingest path; single-threaded) ---

  /// Applies one batch of decoded reports in order. Reports are grouped by
  /// shard so each shard's exclusive lock is taken at most once per batch.
  void apply_batch(const std::vector<metrics::DecodedTrack>& batch);

  // --- Reader side (safe concurrently with apply_batch) ---

  /// Latest-position snapshot of `label`; nullopt for an unknown label.
  std::optional<TrackSnapshot> latest(LabelId label) const;

  /// Points of `label` no older than `window` before its newest point,
  /// oldest first (bounded by the ring capacity). Empty for unknown labels.
  std::vector<TrackSnapshot> history(LabelId label, Duration window) const;

  /// Latest snapshots of every label currently inside `region`, sorted by
  /// label id (deterministic answer for a given store state).
  std::vector<TrackSnapshot> tracks_in_region(Rect region) const;

  std::size_t shard_count() const { return shards_.size(); }
  StoreStats stats() const;

 private:
  /// One history point. Its label is the entry's, and its seq follows
  /// from its place in the ring: every report adds one point and bumps
  /// `latest.seq`, so the i-th oldest of n points has seq
  /// `latest.seq - n + 1 + i`.
  struct Point {
    Vec2 position;
    Time time;
    std::uint64_t epoch = 0;
  };
  static_assert(sizeof(Point) == 32);

  struct Entry {
    TrackSnapshot latest;
    /// Ring of recent points: `ring[(start + i) % cap]` for i < size.
    std::vector<Point> ring;
    std::size_t ring_start = 0;
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<LabelId, Entry> entries;
    std::uint64_t reports = 0;
    std::uint64_t batches = 0;
    std::uint64_t evicted = 0;
  };

  std::size_t shard_index(LabelId label) const;
  void apply_locked(Shard& shard, const metrics::DecodedTrack& report);

  std::size_t ring_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// apply_batch's scratch, touched by the one writer only and kept at its
  /// high-water capacity: the batch's report indices grouped by shard, and
  /// where each shard's group ends.
  std::vector<std::uint32_t> batch_order_;
  std::vector<std::uint32_t> shard_end_;
};

}  // namespace et::serve
