#pragma once

#include <cstdint>
#include <vector>

#include "core/system.hpp"
#include "metrics/track_decode.hpp"
#include "serve/track_store.hpp"

/// Ingest path of the serving tier: base-station reports -> track store.
///
/// Subscribes to the base station's kUser message stream, decodes `track`
/// reports with the shared decoder, applies the TrackRecorder's
/// leadership-epoch fence (a stale pre-partition leader must not regress a
/// served track), and batches admitted reports into the store — flushing
/// when the batch fills or on a periodic timer, whichever comes first.
///
/// Determinism across kernels: the message handler runs in mote context
/// (the base station's tile thread under the parallel kernel), but the
/// fence and batch state are master-owned. Each decoded report is handed
/// over via `Simulator::post_op`, which replays it on the master engine in
/// canonical key order — so batch composition, fencing decisions, and the
/// store's final contents are byte-identical under `serial` and
/// `parallel:N` kernels (enforced by tests/test_serve_equivalence.cpp).
namespace et::serve {

struct IngestConfig {
  /// Flush to the store once this many admitted reports are pending.
  std::size_t max_batch = 32;
  /// Keep every admitted report in an in-order tape (bench replay input).
  bool record_tape = false;
};

struct IngestStats {
  /// Reports that decoded as track reports (tag matched, payload valid).
  std::uint64_t reports_seen = 0;
  /// Admitted reports discarded by the leadership-epoch fence.
  std::uint64_t stale_discarded = 0;
  std::uint64_t batches_flushed = 0;
  std::uint64_t reports_stored = 0;
};

class TrackIngest {
 public:
  /// Attaches to `base_station`'s middleware stack. `store` must outlive
  /// the ingest object.
  TrackIngest(core::EnviroTrackSystem& system, NodeId base_station,
              ShardedTrackStore& store, IngestConfig config = {});
  ~TrackIngest();

  TrackIngest(const TrackIngest&) = delete;
  TrackIngest& operator=(const TrackIngest&) = delete;

  /// Drains any pending sub-batch into the store immediately (call before
  /// reading the store at the end of a run).
  void flush();

  IngestStats stats() const {
    IngestStats s = stats_;
    s.stale_discarded = fence_.stale_discarded();
    return s;
  }

  /// Admitted reports in ingest order; empty unless `record_tape` is set.
  const std::vector<metrics::DecodedTrack>& tape() const { return tape_; }

 private:
  void enqueue(const metrics::DecodedTrack& decoded);

  core::EnviroTrackSystem& system_;
  ShardedTrackStore& store_;
  IngestConfig config_;
  metrics::EpochFence fence_;
  std::vector<metrics::DecodedTrack> pending_;
  std::vector<metrics::DecodedTrack> tape_;
  IngestStats stats_;
  sim::EventHandle tick_;
};

}  // namespace et::serve
