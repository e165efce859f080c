#include "serve/track_store.hpp"

#include <algorithm>
#include <mutex>

namespace et::serve {

namespace {

/// splitmix64 finalizer: LabelId packs (creator node << 32 | seq), so the
/// low bits alone would send every label minted by the same mote to the
/// same shard.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ShardedTrackStore::ShardedTrackStore(StoreConfig config)
    : ring_capacity_(std::max<std::size_t>(1, config.ring_capacity)) {
  const std::size_t count =
      round_up_pow2(std::max<std::size_t>(1, config.shard_count));
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::size_t ShardedTrackStore::shard_index(LabelId label) const {
  return static_cast<std::size_t>(mix(label.value())) &
         (shards_.size() - 1);
}

void ShardedTrackStore::apply_locked(Shard& shard,
                                     const metrics::DecodedTrack& report) {
  Entry& entry = shard.entries[report.label];
  entry.latest.label = report.label;
  entry.latest.position = report.position;
  entry.latest.time = report.time;
  entry.latest.epoch = report.epoch;
  entry.latest.seq++;
  const Point point{report.position, report.time, report.epoch};
  if (entry.ring.size() < ring_capacity_) {
    entry.ring.push_back(point);
  } else {
    entry.ring[entry.ring_start] = point;
    entry.ring_start = (entry.ring_start + 1) % ring_capacity_;
    shard.evicted++;
  }
  shard.reports++;
}

void ShardedTrackStore::apply_batch(
    const std::vector<metrics::DecodedTrack>& batch) {
  if (batch.empty()) return;
  // Group by shard (a stable counting sort into the writer's scratch) so
  // each shard's exclusive lock is taken at most once per batch, preserving
  // the batch's internal order within each shard. A store that has seen a
  // batch this large allocates nothing here.
  shard_end_.assign(shards_.size(), 0);
  for (const metrics::DecodedTrack& report : batch) {
    shard_end_[shard_index(report.label)]++;
  }
  std::uint32_t start = 0;
  for (std::uint32_t& end : shard_end_) {
    const std::uint32_t count = end;
    end = start;  // the shard's group starts here; placement advances it
    start += count;
  }
  batch_order_.resize(batch.size());
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    batch_order_[shard_end_[shard_index(batch[i].label)]++] = i;
  }
  std::uint32_t begin = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::uint32_t end = shard_end_[s];
    if (begin == end) continue;
    Shard& shard = *shards_[s];
    std::unique_lock lock(shard.mutex);
    shard.batches++;
    for (std::uint32_t k = begin; k < end; ++k) {
      apply_locked(shard, batch[batch_order_[k]]);
    }
    begin = end;
  }
}

std::optional<TrackSnapshot> ShardedTrackStore::latest(LabelId label) const {
  const Shard& shard = *shards_[shard_index(label)];
  std::shared_lock lock(shard.mutex);
  const auto it = shard.entries.find(label);
  if (it == shard.entries.end()) return std::nullopt;
  return it->second.latest;
}

std::vector<TrackSnapshot> ShardedTrackStore::history(LabelId label,
                                                      Duration window) const {
  std::vector<TrackSnapshot> out;
  const Shard& shard = *shards_[shard_index(label)];
  std::shared_lock lock(shard.mutex);
  const auto it = shard.entries.find(label);
  if (it == shard.entries.end()) return out;
  const Entry& entry = it->second;
  const Time cutoff = entry.latest.time - window;
  const std::size_t size = entry.ring.size();
  const std::uint64_t first_seq = entry.latest.seq - size + 1;
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const Point& p = entry.ring[(entry.ring_start + i) % size];
    if (p.time >= cutoff) {
      out.push_back(
          TrackSnapshot{label, p.position, p.time, p.epoch, first_seq + i});
    }
  }
  return out;
}

std::vector<TrackSnapshot> ShardedTrackStore::tracks_in_region(
    Rect region) const {
  std::vector<TrackSnapshot> out;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    for (const auto& [label, entry] : shard->entries) {
      if (region.contains(entry.latest.position)) {
        out.push_back(entry.latest);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TrackSnapshot& a, const TrackSnapshot& b) {
              return a.label < b.label;
            });
  return out;
}

StoreStats ShardedTrackStore::stats() const {
  StoreStats stats;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    stats.reports_applied += shard->reports;
    stats.batches_applied += shard->batches;
    stats.points_evicted += shard->evicted;
    stats.labels += shard->entries.size();
  }
  return stats;
}

}  // namespace et::serve
