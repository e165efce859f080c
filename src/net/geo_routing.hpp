#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "node/mote.hpp"
#include "radio/packet.hpp"
#include "util/geometry.hpp"
#include "util/lru_map.hpp"

/// Location-aware multi-hop routing.
///
/// The paper assumes "network nodes and routing are location-aware" (§2) and
/// builds its directory (§5.3) and transport (§5.4) on coordinate-addressed
/// delivery. This module provides that substrate: greedy geographic
/// forwarding — each hop relays to the neighbour strictly closest to the
/// destination coordinate — with per-hop stop-and-wait ARQ (the end-to-end
/// protocols atop it assume links lose frames but not entire paths), TTL,
/// and duplicate suppression.
namespace et::net {

/// End-to-end envelope carried inside kRoute frames.
struct RouteEnvelope {
  std::uint64_t envelope_id = 0;  // (origin << 32 | seq), for dedup/acks
  NodeId origin;
  Vec2 dest;                       // destination coordinate
  std::optional<NodeId> final_dst; // when set, only this node may consume
  radio::MsgType inner_type = radio::MsgType::kUser;
  std::shared_ptr<const radio::Payload> inner;
  std::uint16_t hops = 0;
  std::uint16_t max_hops = 32;
};

struct RoutingConfig {
  /// Per-hop transmissions before giving up on a link (1 = no retry).
  int hop_attempts = 3;
  /// TTL for new envelopes.
  std::uint16_t max_hops = 32;
};

struct RoutingStats {
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;       // consumed at this node
  std::uint64_t forwarded = 0;       // relayed one hop
  std::uint64_t retries = 0;         // per-hop retransmissions
  std::uint64_t dropped_dead_end = 0;  // greedy local minimum / link dead
  std::uint64_t dropped_ttl = 0;
  std::uint64_t duplicates = 0;
};

/// Per-mote routing service. Owns MsgType::kRoute and kRouteAck on its mote.
class GeoRouting {
 public:
  /// Upcall on consumed envelopes, keyed by inner message type.
  using DeliveryHandler = std::function<void(const RouteEnvelope&)>;

  /// `config` is deployment-wide and must outlive the router; a temporary
  /// cannot bind to it.
  GeoRouting(node::Mote& mote, const RoutingConfig& config);
  GeoRouting(node::Mote& mote, RoutingConfig&& config) = delete;

  /// Registers the consumer for an inner message type.
  void on_delivery(radio::MsgType inner_type, DeliveryHandler handler);

  /// Originates an envelope toward `dest`. When `final_dst` is set the
  /// envelope is only consumed by that node (otherwise it is consumed by
  /// the node closest to `dest`).
  void send(Vec2 dest, radio::MsgType inner_type,
            std::shared_ptr<const radio::Payload> inner,
            std::optional<NodeId> final_dst = std::nullopt);

  /// Node-reboot hook: abandons in-flight hops (ARQ timers cancelled,
  /// envelopes dropped) and forgets the duplicate-suppression window. The
  /// neighbour cache survives — motes are stationary.
  void reboot();

  /// Zero on a router that never routed.
  const RoutingStats& stats() const;
  /// True once this router has sent or received a route frame (diagnostics
  /// / tests).
  bool active() const { return active_ != nullptr; }

 private:
  struct PendingHop {
    RouteEnvelope envelope;
    NodeId next_hop;
    int attempts_left;
    sim::EventHandle timeout;
    /// Neighbours that exhausted their ARQ attempts for this envelope;
    /// the forwarder falls back to the next-closest alive neighbour.
    std::vector<NodeId> dead;
  };

  void handle_route(const radio::Frame& frame);
  void handle_ack(const radio::Frame& frame);

  /// Accepts an envelope at this node: consume or forward.
  void accept(RouteEnvelope envelope);
  void forward(RouteEnvelope envelope);
  void transmit_hop(std::uint64_t envelope_id);
  void consume(const RouteEnvelope& envelope);

  /// Cached neighbour entry: id plus position, so the per-hop greedy scan
  /// never goes back to the medium (motes are stationary; positions are
  /// fixed at deployment).
  struct Neighbor {
    NodeId id;
    Vec2 pos;
  };

  /// The neighbour strictly closer to `dest` than this node, skipping
  /// `exclude`, or nullopt.
  std::optional<NodeId> best_next_hop(
      Vec2 dest, const std::vector<NodeId>& exclude = {});
  const std::vector<Neighbor>& neighbors();

  /// Everything a router needs once it has sent or received a route frame.
  struct Active {
    explicit Active(std::size_t dedup_capacity) : seen(dedup_capacity) {}

    LruMap<std::uint64_t, bool> seen;
    std::unordered_map<std::uint64_t, PendingHop> pending;
    std::vector<Neighbor> neighbor_cache;
    bool neighbors_cached = false;
    std::uint32_t next_seq = 0;
    RoutingStats stats;
  };
  /// The active part, allocated on the first route frame or send and kept
  /// from then on (ARQ timers refer to it; reboot clears it in place).
  Active& activate();

  using DeliveryTable = std::array<DeliveryHandler, radio::kMsgTypeCount>;

  node::Mote& mote_;
  const RoutingConfig& config_;
  /// Allocated by the first on_delivery(); most motes only relay and never
  /// register a consumer.
  std::unique_ptr<DeliveryTable> delivery_;
  /// Most motes of a large field never route and never allocate it.
  std::unique_ptr<Active> active_;
};

}  // namespace et::net
