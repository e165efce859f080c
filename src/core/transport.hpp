#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/context_runtime.hpp"
#include "core/directory.hpp"
#include "core/group_manager.hpp"
#include "net/geo_routing.hpp"
#include "util/lru_map.hpp"

/// The mote transport protocol — MTP (§5.4).
///
/// Context labels are akin to IP addresses; the group leader oversees all
/// communication with the label. Remote method invocation between labels:
/// the source leader resolves the destination label to a last-known leader
/// (bounded LRU table, refreshed from headers of incoming traffic and
/// overheard heartbeats), geo-routes the invocation there, and past leaders
/// forward along the chain toward the current leader. First contact falls
/// back to a directory lookup.
///
/// Reliability layer (enabled by default): every invocation carries a
/// per-destination sequence number; the delivering leader acks end-to-end,
/// the origin retransmits on an exponential-backoff timer until acked or
/// the retry budget runs out, and receivers suppress duplicates through a
/// bounded dedup window. Delivery is exactly-once per receiving node;
/// across a leadership migration the same invocation can reach the old and
/// the new leader (at-least-once), which the invariant oracle accounts for.
namespace et::core {

struct TransportConfig {
  /// Acked end-to-end delivery with retransmits. When false the transport
  /// is the original fire-and-forget MTP (kept for ablation: the chaos
  /// sweep compares the two under burst loss).
  bool reliable = true;
};

struct TransportStats {
  std::uint64_t invocations_sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t directory_lookups = 0;
  std::uint64_t dropped_unknown = 0;
  std::uint64_t dropped_forward_limit = 0;
  // Reliability layer.
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t retransmits = 0;
  /// Transfers abandoned after the retry budget (delivery_failed fired).
  std::uint64_t delivery_failures = 0;
  /// Retransmitted invocations the dedup window stopped from dispatching
  /// twice.
  std::uint64_t duplicates_suppressed = 0;
  /// Sends suppressed by the negative cache (label recently unresolvable).
  std::uint64_t resolve_failed = 0;
};

/// MTP invocation message (inner payload of kMtpData envelopes).
class MtpPayload final : public radio::Payload {
 public:
  MtpPayload(LabelId src_label, NodeId src_leader, Vec2 src_leader_pos,
             TypeIndex dst_type, LabelId dst_label, PortId port,
             std::vector<double> args)
      : src_label(src_label),
        src_leader(src_leader),
        src_leader_pos(src_leader_pos),
        dst_type(dst_type),
        dst_label(dst_label),
        port(port),
        args(std::move(args)) {}

  std::size_t size_bytes() const override { return 37 + args.size() * 4; }

  LabelId src_label;
  /// "Each message contains the current leader of the group, so that
  /// future return messages are forwarded as close to the group as
  /// possible." Doubles as the transfer origin the end-to-end ack routes
  /// back to.
  NodeId src_leader;
  Vec2 src_leader_pos;
  TypeIndex dst_type;
  LabelId dst_label;
  PortId port;
  std::vector<double> args;
  std::uint8_t forwards = 0;
  /// Per-destination sequence number (reliable mode); 0 on
  /// fire-and-forget sends.
  std::uint32_t seq = 0;
  /// Ask the delivering leader for an end-to-end ack.
  bool want_ack = false;
};

/// End-to-end acknowledgement, geo-routed back to the transfer origin.
class MtpAckPayload final : public radio::Payload {
 public:
  MtpAckPayload(NodeId origin, LabelId dst_label, std::uint32_t seq)
      : origin(origin), dst_label(dst_label), seq(seq) {}
  std::size_t size_bytes() const override { return 14; }

  NodeId origin;
  LabelId dst_label;
  std::uint32_t seq;
};

class Transport {
 public:
  /// Fired once per reliable transfer whose retry budget is exhausted,
  /// with the failed invocation so callers can degrade gracefully (drop,
  /// reroute, raise an application alarm) instead of silently losing it.
  /// May fire synchronously from within invoke() when the destination is
  /// immediately unresolvable.
  using DeliveryFailedFn = std::function<void(
      TypeIndex, LabelId dst_label, PortId, const std::vector<double>& args)>;

  /// Retransmissions after the initial send before the transfer fails.
  static constexpr int kMaxRetries = 4;
  /// Initial retransmit timeout; doubles on every retry. Should exceed the
  /// worst-case geo-routed round trip INCLUDING the per-hop ARQ backoff
  /// ladder, or the end-to-end layer retransmits while the network layer
  /// is still trying — every premature copy is a fresh routed envelope,
  /// and under burst loss that amplification congests the channel the
  /// original frame needed to get through. One lossy hop's ladder in
  /// net::GeoRouting alone takes about 1.05-1.6 s (150, 300 and 600 ms ack
  /// timeouts, each plus up to 50% jitter), so the first timeout waits out
  /// one exhausted ladder plus the ack's way back.
  static constexpr Duration kRetryTimeout = Duration::millis(2500);
  /// Uniform jitter fraction added to every retransmit delay (timeout *
  /// [1, 1 + jitter]), drawn from the mote's deterministic RNG stream so
  /// synchronized senders desynchronize without breaking reproducibility.
  static constexpr double kRetryJitter = 0.25;

  Transport(node::Mote& mote, net::GeoRouting& routing, GroupManager& groups,
            ContextRuntime& runtime, Directory* directory,
            TransportConfig config = {});

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Invokes `port` on the object attached to `dst_label`. `src_label` is
  /// the originating context (invalid when called from plain node code).
  void invoke(TypeIndex dst_type, LabelId dst_label, PortId port,
              std::vector<double> args, LabelId src_label = LabelId{});

  /// Heartbeat snooping (wired from the GroupManager): every observed
  /// heartbeat refreshes the last-known-leader table, which is what lets
  /// past leaders act as forwarding routers after the group moves on.
  void on_leader_observed(TypeIndex type, LabelId label, NodeId leader,
                          Vec2 leader_pos);

  /// Leadership-change hook (wired from the GroupManager's leader-stop
  /// edge): drops a cached self-entry for `label` so messages that arrive
  /// after yield/relinquish/takeover re-resolve via the directory instead
  /// of dying as dropped_unknown against a stale "I am the leader" record.
  void on_leader_stop(TypeIndex type, LabelId label);

  /// Clears volatile state (leader table, in-flight transfers, dedup and
  /// negative caches) after a node reboot; the program image survives.
  void reboot();

  void set_delivery_failed(DeliveryFailedFn fn) {
    delivery_failed_ = std::move(fn);
  }

  /// Last-known leader of a label, if cached.
  struct LeaderInfo {
    NodeId node;
    Vec2 pos;
    Time at;
  };
  const LeaderInfo* known_leader(LabelId label) const {
    return leaders_.peek(label);
  }

  /// Reliable transfers awaiting an ack at this origin.
  std::size_t pending_transfers() const { return pending_.size(); }

  const TransportStats& stats() const { return stats_; }

 private:
  struct PendingTransfer {
    std::shared_ptr<MtpPayload> payload;
    int attempts = 0;  // retransmits performed
    sim::EventHandle retry_timer;
  };

  /// Key of a transfer at its origin (per-destination seq + label).
  static std::uint64_t transfer_key(LabelId label, std::uint32_t seq) {
    return label.value() * 0x9e3779b97f4a7c15ull ^ seq;
  }
  /// Receiver-side dedup key; includes the origin so two origins' streams
  /// never collide.
  static std::uint64_t dedup_key(NodeId origin, LabelId label,
                                 std::uint32_t seq) {
    std::uint64_t h = label.value() * 0x9e3779b97f4a7c15ull;
    h ^= origin.value() * 0xff51afd7ed558ccdull;
    return h ^ seq;
  }

  void handle_delivery(const net::RouteEnvelope& envelope);
  void handle_ack(const net::RouteEnvelope& envelope);
  void send_to(const LeaderInfo& info, std::shared_ptr<MtpPayload> payload);
  void resolve_and_send(std::shared_ptr<MtpPayload> payload);
  /// Dispatch at the destination leader: dedup, ack, deliver.
  void deliver_local(const MtpPayload& payload);
  void send_ack(const MtpPayload& payload);
  void arm_retry(std::uint64_t key);
  void on_retry_timeout(std::uint64_t key);
  /// Cancels the retry timer and forgets the transfer. Returns false when
  /// the key was not pending (already settled or failed).
  bool settle(std::uint64_t key);
  void fail_transfer(std::uint64_t key);
  /// Origin-side abort when resolution fails: a reliable transfer fails
  /// immediately (no point retrying into a void), fire-and-forget is a
  /// silent drop either way.
  void abort_unresolvable(const MtpPayload& payload);
  void note_resolve_failure(LabelId label);
  /// Journals one event to the deployment's transport observers, as
  /// GroupManager journals group events.
  void emit(TransportEvent::Kind kind, LabelId dst_label, NodeId origin,
            std::uint32_t seq, int attempt);

  node::Mote& mote_;
  net::GeoRouting& routing_;
  GroupManager& groups_;
  ContextRuntime& runtime_;
  Directory* directory_;
  TransportConfig config_;
  LruMap<LabelId, LeaderInfo> leaders_;
  /// Per-destination sequence counters (reliable mode).
  LruMap<LabelId, std::uint32_t> next_seq_;
  /// Origin-side transfers awaiting an ack, keyed by transfer_key().
  std::unordered_map<std::uint64_t, PendingTransfer> pending_;
  /// Receiver-side dedup window, keyed by dedup_key().
  LruMap<std::uint64_t, bool> delivered_seen_;
  /// Labels with a directory query in flight, each with the payloads
  /// waiting on its answer. Coalescing keeps retransmits (and concurrent
  /// sends) from issuing one query per attempt.
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<MtpPayload>>>
      resolving_;
  /// Negative cache: label -> expiry of its "unresolvable" verdict.
  LruMap<LabelId, Time> resolve_failed_until_;
  DeliveryFailedFn delivery_failed_;
  TransportStats stats_;
};

}  // namespace et::core
