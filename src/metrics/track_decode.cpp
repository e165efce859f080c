#include "metrics/track_decode.hpp"

namespace et::metrics {

std::optional<DecodedTrack> decode_track_report(
    const core::UserMessagePayload& msg, Time now) {
  if (msg.tag != kTrackTag || msg.data.size() < 2) return std::nullopt;
  DecodedTrack decoded;
  decoded.time = now;
  decoded.label = msg.src_label;
  decoded.source = msg.src_node;
  decoded.position = Vec2{msg.data[0], msg.data[1]};
  decoded.epoch = msg.epoch;
  return decoded;
}

}  // namespace et::metrics
