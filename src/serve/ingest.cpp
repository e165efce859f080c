#include "serve/ingest.hpp"

namespace et::serve {

namespace {

/// Timer-driven flush bound: a trickle of reports reaches the store at
/// most this late.
constexpr Duration kFlushPeriod = Duration::millis(50);

}  // namespace

TrackIngest::TrackIngest(core::EnviroTrackSystem& system, NodeId base_station,
                         ShardedTrackStore& store, IngestConfig config)
    : system_(system), store_(store), config_(config) {
  pending_.reserve(config_.max_batch);
  system_.stack(base_station)
      .on_user_message([this](const core::UserMessagePayload& msg, NodeId) {
        // Mote context: decode here (read-only), then hand the report to
        // the master engine as a channel op — fence and batch state are
        // single-threaded and canonically ordered there.
        const Time now = sim::Simulator::ambient_now(system_.sim());
        const auto decoded = metrics::decode_track_report(msg, now);
        if (!decoded) return;
        system_.sim().post_op([this, d = *decoded] { enqueue(d); });
      });
  tick_ = system_.sim().schedule_periodic(kFlushPeriod, kFlushPeriod,
                                          [this] { flush(); });
}

TrackIngest::~TrackIngest() {
  tick_.cancel();
  flush();
}

void TrackIngest::enqueue(const metrics::DecodedTrack& decoded) {
  stats_.reports_seen++;
  if (!fence_.admit(decoded.label, decoded.epoch)) return;
  pending_.push_back(decoded);
  if (pending_.size() >= config_.max_batch) flush();
}

void TrackIngest::flush() {
  if (pending_.empty()) return;
  store_.apply_batch(pending_);
  stats_.batches_flushed++;
  stats_.reports_stored += pending_.size();
  if (config_.record_tape) {
    tape_.insert(tape_.end(), pending_.begin(), pending_.end());
  }
  pending_.clear();
}

}  // namespace et::serve
