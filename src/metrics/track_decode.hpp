#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/app_messages.hpp"
#include "util/geometry.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

/// Shared interpretation of MTP `track` reports.
///
/// Two consumers sit behind the base station — the TrackRecorder (Fig. 3
/// instrumentation) and the serving tier's ingest path (src/serve) — and
/// both must read the wire format and apply the leadership-epoch fence the
/// same way. This header is the single place that knows a "track" report
/// is `{tag, src_label, epoch, data = [x, y]}`.
namespace et::metrics {

/// User-message tag of a track report: the tank reporter sends it, the
/// decoder accepts nothing else.
inline constexpr std::string_view kTrackTag = "track";

/// One decoded track report, stamped with the receive time.
struct DecodedTrack {
  Time time;
  LabelId label;
  NodeId source;  // leader that sent the report
  Vec2 position;
  std::uint64_t epoch = 0;
};

/// Interprets `msg` as a track report. Returns nullopt when the tag is not
/// kTrackTag or the payload is too short to carry a position.
std::optional<DecodedTrack> decode_track_report(
    const core::UserMessagePayload& msg, Time now);

/// Per-label leadership-epoch fence: a stale leader (fenced after a
/// partition heal) may still have reports in flight; once a higher-epoch
/// report for a label has arrived, anything older is discarded. The first
/// report of a label always passes and seeds the high-water mark.
class EpochFence {
 public:
  /// Returns true when the report should be accepted; false marks it stale
  /// (and counts it). Advances the label's high-water mark on acceptance.
  bool admit(LabelId label, std::uint64_t epoch) {
    auto [it, first] = highest_.try_emplace(label, epoch);
    if (!first) {
      if (epoch < it->second) {
        stale_discarded_++;
        return false;
      }
      it->second = epoch;
    }
    return true;
  }

  std::uint64_t stale_discarded() const { return stale_discarded_; }
  void clear() {
    highest_.clear();
    stale_discarded_ = 0;
  }

 private:
  std::unordered_map<LabelId, std::uint64_t> highest_;
  std::uint64_t stale_discarded_ = 0;
};

}  // namespace et::metrics
