#include "net/geo_routing.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace et::net {

namespace {

constexpr const char* kComponent = "geo-routing";

/// How long to wait for the next hop's ack before retrying. Must exceed a
/// hop round trip under MAC queueing (frame and ack each wait behind the
/// queued frames of their sender): a shorter timeout turns every late ack
/// into a retry plus fallback relays, and under the reliable transport
/// that extra traffic is what backs the queues up further.
constexpr Duration kAckTimeout = Duration::millis(150);
/// Ack-timeout multiplier per successive attempt of the same hop. A flat
/// retry cadence melts down under load: when the MAC queue backs up, the
/// queueing delay alone exceeds the timeout, every healthy link looks
/// dead, and the retries feed the very congestion that started it.
constexpr double kRetryBackoff = 2.0;
/// Uniform jitter fraction on top of the backoff (desynchronises relays
/// that lost the same frame). Drawn from the mote's RNG stream, so runs
/// stay bit-reproducible.
constexpr double kRetryJitter = 0.5;
/// Dead-neighbour fallbacks tried per envelope before giving up. In a
/// dense deployment an uncapped sweep re-sends the envelope to every
/// closer neighbour — tens of transmissions per envelope during a loss
/// burst, which is exactly when the channel can least afford them.
constexpr int kMaxFallbacks = 3;
/// Remembered envelope ids for duplicate suppression.
constexpr std::size_t kDedupCapacity = 128;

/// Wire representation of an in-flight envelope.
class RoutePayload final : public radio::Payload {
 public:
  explicit RoutePayload(RouteEnvelope envelope)
      : envelope_(std::move(envelope)) {}

  std::size_t size_bytes() const override {
    // envelope id (8) + origin (2) + dest coord (8) + flags/ttl (2) + inner.
    return 20 + (envelope_.inner ? envelope_.inner->size_bytes() : 0);
  }
  const RouteEnvelope& envelope() const { return envelope_; }

 private:
  RouteEnvelope envelope_;
};

/// Per-hop acknowledgement.
class AckPayload final : public radio::Payload {
 public:
  explicit AckPayload(std::uint64_t envelope_id) : envelope_id_(envelope_id) {}
  std::size_t size_bytes() const override { return 8; }
  std::uint64_t envelope_id() const { return envelope_id_; }

 private:
  std::uint64_t envelope_id_;
};

}  // namespace

GeoRouting::GeoRouting(node::Mote& mote, const RoutingConfig& config)
    : mote_(mote), config_(config) {
  mote_.set_handler<&GeoRouting::handle_route>(radio::MsgType::kRoute, this);
  mote_.set_handler<&GeoRouting::handle_ack>(radio::MsgType::kRouteAck, this);
}

void GeoRouting::on_delivery(radio::MsgType inner_type,
                             DeliveryHandler handler) {
  if (!delivery_) delivery_ = std::make_unique<DeliveryTable>();
  auto& slot = (*delivery_)[static_cast<std::size_t>(inner_type)];
  assert(!slot && "one consumer per inner type");
  slot = std::move(handler);
}

GeoRouting::Active& GeoRouting::activate() {
  if (!active_) active_ = std::make_unique<Active>(kDedupCapacity);
  return *active_;
}

const RoutingStats& GeoRouting::stats() const {
  static const RoutingStats kNeverRouted;
  return active_ ? active_->stats : kNeverRouted;
}

const std::vector<GeoRouting::Neighbor>& GeoRouting::neighbors() {
  Active& active = activate();
  if (!active.neighbors_cached) {
    radio::Medium& medium = mote_.medium();
    active.neighbor_cache.clear();
    for (NodeId n : medium.neighbors(mote_.id())) {
      active.neighbor_cache.push_back(Neighbor{n, medium.position_of(n)});
    }
    active.neighbors_cached = true;
  }
  return active.neighbor_cache;
}

std::optional<NodeId> GeoRouting::best_next_hop(
    Vec2 dest, const std::vector<NodeId>& exclude) {
  const double own = distance_sq(mote_.position(), dest);
  std::optional<NodeId> best;
  double best_d = own;
  for (const Neighbor& n : neighbors()) {
    if (std::find(exclude.begin(), exclude.end(), n.id) != exclude.end()) {
      continue;
    }
    const double d = distance_sq(n.pos, dest);
    if (d < best_d) {
      best_d = d;
      best = n.id;
    }
  }
  return best;
}

void GeoRouting::send(Vec2 dest, radio::MsgType inner_type,
                      std::shared_ptr<const radio::Payload> inner,
                      std::optional<NodeId> final_dst) {
  Active& active = activate();
  RouteEnvelope envelope;
  envelope.envelope_id = (mote_.id().value() << 32) |
                         static_cast<std::uint64_t>(active.next_seq++);
  envelope.origin = mote_.id();
  envelope.dest = dest;
  envelope.final_dst = final_dst;
  envelope.inner_type = inner_type;
  envelope.inner = std::move(inner);
  envelope.max_hops = config_.max_hops;
  active.stats.originated++;
  accept(std::move(envelope));
}

void GeoRouting::handle_route(const radio::Frame& frame) {
  const auto* payload = static_cast<const RoutePayload*>(frame.payload.get());
  const RouteEnvelope& envelope = payload->envelope();

  // Ack the hop first — the previous relay only needs to know we have it,
  // even when it turns out to be a duplicate.
  mote_.unicast(frame.src, radio::MsgType::kRouteAck,
                std::make_shared<AckPayload>(envelope.envelope_id));

  Active& active = activate();
  if (active.seen.contains(envelope.envelope_id)) {
    active.stats.duplicates++;
    return;
  }
  accept(envelope);
}

void GeoRouting::handle_ack(const radio::Frame& frame) {
  // A router that never forwarded has no hop waiting for this ack.
  if (!active_) return;
  const auto* payload = static_cast<const AckPayload*>(frame.payload.get());
  auto& pending = active_->pending;
  auto it = pending.find(payload->envelope_id());
  if (it == pending.end()) return;  // late ack after retry resolution
  it->second.timeout.cancel();
  pending.erase(it);
}

void GeoRouting::reboot() {
  if (!active_) return;
  for (auto& [id, hop] : active_->pending) hop.timeout.cancel();
  active_->pending.clear();
  active_->seen.clear();
}

void GeoRouting::accept(RouteEnvelope envelope) {
  Active& active = activate();
  active.seen.put(envelope.envelope_id, true);

  if (envelope.final_dst && *envelope.final_dst == mote_.id()) {
    consume(envelope);
    return;
  }

  const auto next = best_next_hop(envelope.dest);
  if (!next) {
    // Greedy local minimum: this node is closer to the destination
    // coordinate than every neighbour.
    if (!envelope.final_dst) {
      consume(envelope);  // coordinate-addressed: nearest node consumes
    } else {
      active.stats.dropped_dead_end++;
      ET_DEBUG(kComponent, "node %llu: dead end toward %s",
               static_cast<unsigned long long>(mote_.id().value()),
               envelope.dest.to_string().c_str());
    }
    return;
  }
  envelope.hops++;
  if (envelope.hops > envelope.max_hops) {
    active.stats.dropped_ttl++;
    return;
  }

  PendingHop hop{std::move(envelope), *next, config_.hop_attempts,
                 sim::EventHandle{}, {}};
  const std::uint64_t id = hop.envelope.envelope_id;
  active.pending[id] = std::move(hop);
  active.stats.forwarded++;
  transmit_hop(id);
}

void GeoRouting::transmit_hop(std::uint64_t envelope_id) {
  Active& active = *active_;
  auto it = active.pending.find(envelope_id);
  if (it == active.pending.end()) return;
  PendingHop& hop = it->second;
  hop.attempts_left--;
  mote_.unicast(hop.next_hop, radio::MsgType::kRoute,
                std::make_shared<RoutePayload>(hop.envelope));
  // Exponential backoff + jitter per attempt. The growing timeout also
  // absorbs MAC queueing delay under load, so a congested (but alive) link
  // is not misdiagnosed as dead and swept for fallbacks.
  const int attempt = config_.hop_attempts - hop.attempts_left - 1;
  double backoff = 1.0;
  for (int i = 0; i < attempt; ++i) backoff *= kRetryBackoff;
  const double jitter = 1.0 + kRetryJitter * mote_.rng().next_double();
  hop.timeout = mote_.sim().schedule(
      kAckTimeout * (backoff * jitter), [this, envelope_id] {
    Active& state = *active_;
    auto pending_it = state.pending.find(envelope_id);
    if (pending_it == state.pending.end()) return;  // acked meanwhile
    PendingHop& pending = pending_it->second;
    if (pending.attempts_left > 0) {
      state.stats.retries++;
      transmit_hop(envelope_id);
      return;
    }
    // This link is dead (crashed node or persistent interference): route
    // around it through the next-closest alive neighbour — but only a
    // bounded number of times per envelope, or a loss burst turns every
    // envelope into a broadcast storm over all closer neighbours.
    pending.dead.push_back(pending.next_hop);
    if (static_cast<int>(pending.dead.size()) <= kMaxFallbacks) {
      if (const auto alternative =
              best_next_hop(pending.envelope.dest, pending.dead)) {
        pending.next_hop = *alternative;
        pending.attempts_left = config_.hop_attempts;
        state.stats.retries++;
        transmit_hop(envelope_id);
        return;
      }
    }
    // No alternative: for coordinate-addressed envelopes this node is the
    // closest *reachable* one and consumes; targeted envelopes drop.
    RouteEnvelope envelope = std::move(pending.envelope);
    state.pending.erase(pending_it);
    if (!envelope.final_dst) {
      consume(envelope);
    } else {
      state.stats.dropped_dead_end++;
    }
  });
}

void GeoRouting::consume(const RouteEnvelope& envelope) {
  active_->stats.delivered++;
  if (!delivery_) return;
  const auto& handler =
      (*delivery_)[static_cast<std::size_t>(envelope.inner_type)];
  if (handler) handler(envelope);
}

}  // namespace et::net
