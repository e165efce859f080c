#include "core/transport.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace et::core {

namespace {
constexpr const char* kComponent = "mtp";

/// "Leadership information is retained for as long as possible, given
/// limited table sizes. Replacement is done on a least-recently-used
/// basis."
constexpr std::size_t kLeaderTableCapacity = 32;
/// Forwarding hops an invocation may take past its first landing point
/// before being dropped as undeliverable.
constexpr std::uint8_t kMaxForwards = 8;
/// Receiver-side duplicate-suppression window: completed transfers
/// remembered per node. Retransmits of an already-delivered invocation
/// are re-acked but not re-dispatched.
constexpr std::size_t kDedupCapacity = 128;
/// A destination label that just failed resolution is negative-cached
/// for this long: repeat sends fail fast instead of re-querying the
/// directory every time (the unbounded-re-resolution fix).
constexpr Duration kNegativeCacheTtl = Duration::seconds(2);
constexpr std::size_t kNegativeCacheCapacity = 32;

}  // namespace

const char* transport_event_kind_name(TransportEvent::Kind kind) {
  switch (kind) {
    case TransportEvent::Kind::kSend:
      return "send";
    case TransportEvent::Kind::kRetransmit:
      return "retransmit";
    case TransportEvent::Kind::kAcked:
      return "acked";
    case TransportEvent::Kind::kDelivered:
      return "delivered";
    case TransportEvent::Kind::kDuplicate:
      return "duplicate";
    case TransportEvent::Kind::kFailed:
      return "failed";
    case TransportEvent::Kind::kResolveFailed:
      return "resolve-failed";
  }
  return "?";
}

Transport::Transport(node::Mote& mote, net::GeoRouting& routing,
                     GroupManager& groups, ContextRuntime& runtime,
                     Directory* directory, TransportConfig config)
    : mote_(mote),
      routing_(routing),
      groups_(groups),
      runtime_(runtime),
      directory_(directory),
      config_(config),
      leaders_(kLeaderTableCapacity),
      next_seq_(kLeaderTableCapacity),
      delivered_seen_(kDedupCapacity),
      resolve_failed_until_(kNegativeCacheCapacity) {
  routing_.on_delivery(radio::MsgType::kMtpData,
                       [this](const net::RouteEnvelope& envelope) {
                         handle_delivery(envelope);
                       });
  routing_.on_delivery(radio::MsgType::kMtpAck,
                       [this](const net::RouteEnvelope& envelope) {
                         handle_ack(envelope);
                       });
  runtime_.set_transport(this);
}

void Transport::emit(TransportEvent::Kind kind, LabelId dst_label,
                     NodeId origin, std::uint32_t seq, int attempt) {
  const GroupDeployment& deployment = groups_.deployment();
  const std::vector<TransportObserver*>& observers =
      deployment.transport_observers;
  if (observers.empty()) return;
  const TransportEvent event{kind,   mote_.now(), mote_.id(), dst_label,
                             origin, seq,         attempt};
  // As GroupManager::emit: the op reads the observers of the emit.
  auto journal = [&observers, event] {
    for (std::size_t i = 0; i < observers.size(); ++i) {
      observers[i]->on_transport_event(event);
    }
  };
  static_assert(sim::Simulator::Callback::fits_inline<decltype(journal)>);
  deployment.master.post_op(std::move(journal));
}

void Transport::on_leader_observed(TypeIndex type, LabelId label,
                                   NodeId leader, Vec2 leader_pos) {
  (void)type;
  leaders_.put(label, LeaderInfo{leader, leader_pos, mote_.now()});
}

void Transport::on_leader_stop(TypeIndex type, LabelId label) {
  (void)type;
  const LeaderInfo* info = leaders_.peek(label);
  if (info && info->node == mote_.id()) leaders_.erase(label);
}

void Transport::reboot() {
  leaders_.clear();
  next_seq_.clear();
  for (auto& [key, transfer] : pending_) transfer.retry_timer.cancel();
  pending_.clear();
  delivered_seen_.clear();
  resolve_failed_until_.clear();
  // The directory reboot drops in-flight query callbacks without invoking
  // them; matching state here must go too or the label would be stuck
  // "resolving" forever.
  resolving_.clear();
}

void Transport::invoke(TypeIndex dst_type, LabelId dst_label, PortId port,
                       std::vector<double> args, LabelId src_label) {
  stats_.invocations_sent++;
  auto payload = std::make_shared<MtpPayload>(
      src_label, mote_.id(), mote_.position(), dst_type, dst_label, port,
      std::move(args));
  if (config_.reliable) {
    payload->want_ack = true;
    std::uint32_t* seq = next_seq_.get(dst_label);
    if (seq == nullptr) {
      next_seq_.put(dst_label, 1);
      seq = next_seq_.get(dst_label);
    }
    payload->seq = (*seq)++;
    const std::uint64_t key = transfer_key(dst_label, payload->seq);
    PendingTransfer transfer;
    transfer.payload = payload;
    pending_.emplace(key, std::move(transfer));
    emit(TransportEvent::Kind::kSend, dst_label, mote_.id(), payload->seq, 0);
    // Armed before the send: a synchronous local delivery or resolution
    // failure settles/fails the transfer and cancels this timer.
    arm_retry(key);
  }
  resolve_and_send(std::move(payload));
}

void Transport::arm_retry(std::uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  PendingTransfer& transfer = it->second;
  // Exponential backoff with uniform jitter. Driven by the simulation
  // clock and this mote's RNG stream — never the wall clock — so chaos
  // runs stay bit-reproducible (serial == parallel sweep output).
  const double backoff =
      static_cast<double>(1u << std::min(transfer.attempts, 16));
  const double jitter = 1.0 + kRetryJitter * mote_.rng().next_double();
  transfer.retry_timer =
      mote_.after(kRetryTimeout * (backoff * jitter),
                  [this, key] { on_retry_timeout(key); });
}

void Transport::on_retry_timeout(std::uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  PendingTransfer& transfer = it->second;
  if (transfer.attempts >= kMaxRetries) {
    fail_transfer(key);
    return;
  }
  transfer.attempts++;
  stats_.retransmits++;
  emit(TransportEvent::Kind::kRetransmit, transfer.payload->dst_label,
       mote_.id(), transfer.payload->seq, transfer.attempts);
  arm_retry(key);
  // Re-resolve on every attempt: the leader table may have been repaired
  // by snooping since the last send, which is exactly what routes the
  // retransmit around a migrated leader.
  resolve_and_send(std::make_shared<MtpPayload>(*transfer.payload));
}

bool Transport::settle(std::uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return false;
  it->second.retry_timer.cancel();
  pending_.erase(it);
  return true;
}

void Transport::fail_transfer(std::uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  PendingTransfer transfer = std::move(it->second);
  pending_.erase(it);
  transfer.retry_timer.cancel();
  stats_.delivery_failures++;
  emit(TransportEvent::Kind::kFailed, transfer.payload->dst_label,
       mote_.id(), transfer.payload->seq, transfer.attempts);
  ET_DEBUG(kComponent, "node %llu: transfer to label %llu failed after %d "
           "retries",
           static_cast<unsigned long long>(mote_.id().value()),
           static_cast<unsigned long long>(
               transfer.payload->dst_label.value()),
           transfer.attempts);
  if (delivery_failed_) {
    delivery_failed_(transfer.payload->dst_type, transfer.payload->dst_label,
                     transfer.payload->port, transfer.payload->args);
  }
}

void Transport::abort_unresolvable(const MtpPayload& payload) {
  if (!payload.want_ack || payload.src_leader != mote_.id()) return;
  fail_transfer(transfer_key(payload.dst_label, payload.seq));
}

void Transport::note_resolve_failure(LabelId label) {
  resolve_failed_until_.put(label, mote_.now() + kNegativeCacheTtl);
}

void Transport::resolve_and_send(std::shared_ptr<MtpPayload> payload) {
  // Local shortcut: we may lead the destination label ourselves.
  if (groups_.role(payload->dst_type) == Role::kLeader &&
      groups_.current_label(payload->dst_type) == payload->dst_label) {
    deliver_local(*payload);
    return;
  }

  if (const LeaderInfo* info = leaders_.get(payload->dst_label)) {
    send_to(*info, std::move(payload));
    return;
  }

  // Negative cache: a label that just proved unresolvable fails fast
  // instead of re-querying the directory on every send.
  if (const Time* until = resolve_failed_until_.peek(payload->dst_label)) {
    if (mote_.now() < *until) {
      stats_.resolve_failed++;
      emit(TransportEvent::Kind::kResolveFailed, payload->dst_label,
           payload->src_leader, payload->seq, 0);
      abort_unresolvable(*payload);
      return;
    }
    resolve_failed_until_.erase(payload->dst_label);
  }

  if (directory_) {
    // First contact: look the label up in the directory object of its
    // type, then send. Later messages use the (faster) leader table.
    // One query per label at a time — retransmits and concurrent sends
    // queue behind the in-flight lookup instead of re-querying.
    const LabelId label = payload->dst_label;
    const TypeIndex dst_type = payload->dst_type;
    auto [it, first] = resolving_.try_emplace(label.value());
    it->second.push_back(std::move(payload));
    if (!first) return;
    stats_.directory_lookups++;
    directory_->query(
        dst_type,
        [this, label](bool ok, const std::vector<DirectoryEntry>& entries) {
          auto rit = resolving_.find(label.value());
          if (rit == resolving_.end()) return;  // reboot raced the reply
          std::vector<std::shared_ptr<MtpPayload>> waiting =
              std::move(rit->second);
          resolving_.erase(rit);
          if (ok) {
            for (const DirectoryEntry& entry : entries) {
              if (entry.label != label) continue;
              // A directory record naming *us* as the leader is stale by
              // construction here (the local-leader shortcut already
              // missed); sending to ourselves would just loop the message
              // back into handle_delivery.
              if (entry.leader == mote_.id()) continue;
              const LeaderInfo info{entry.leader, entry.location,
                                    mote_.now()};
              leaders_.put(label, info);
              for (auto& p : waiting) send_to(info, std::move(p));
              return;
            }
          }
          stats_.dropped_unknown++;
          note_resolve_failure(label);
          for (const auto& p : waiting) {
            emit(TransportEvent::Kind::kResolveFailed, p->dst_label,
                 p->src_leader, p->seq, 0);
            abort_unresolvable(*p);
          }
          ET_DEBUG(kComponent, "node %llu: label %llu unresolvable",
                   static_cast<unsigned long long>(mote_.id().value()),
                   static_cast<unsigned long long>(label.value()));
        });
    return;
  }

  stats_.dropped_unknown++;
  abort_unresolvable(*payload);
}

void Transport::send_to(const LeaderInfo& info,
                        std::shared_ptr<MtpPayload> payload) {
  routing_.send(info.pos, radio::MsgType::kMtpData, std::move(payload),
                info.node);
}

void Transport::send_ack(const MtpPayload& payload) {
  stats_.acks_sent++;
  routing_.send(payload.src_leader_pos, radio::MsgType::kMtpAck,
                std::make_shared<MtpAckPayload>(payload.src_leader,
                                                payload.dst_label,
                                                payload.seq),
                payload.src_leader);
}

void Transport::deliver_local(const MtpPayload& payload) {
  if (payload.want_ack) {
    const bool self_origin = payload.src_leader == mote_.id();
    const std::uint64_t dkey =
        dedup_key(payload.src_leader, payload.dst_label, payload.seq);
    const bool duplicate = delivered_seen_.contains(dkey);
    delivered_seen_.put(dkey, true);
    if (self_origin) {
      // The origin leads the destination itself: settle without a radio
      // ack.
      settle(transfer_key(payload.dst_label, payload.seq));
    } else {
      // Ack duplicates too — the retransmit means our previous ack was
      // lost.
      send_ack(payload);
    }
    if (duplicate) {
      stats_.duplicates_suppressed++;
      emit(TransportEvent::Kind::kDuplicate, payload.dst_label,
           payload.src_leader, payload.seq, 0);
      return;
    }
  }
  stats_.delivered++;
  emit(TransportEvent::Kind::kDelivered, payload.dst_label,
       payload.src_leader, payload.seq, 0);
  runtime_.dispatch_port(payload.dst_type, payload.dst_label, payload.port,
                         payload.args,
                         payload.src_leader.is_valid() ? payload.src_leader
                                                       : mote_.id());
}

void Transport::handle_ack(const net::RouteEnvelope& envelope) {
  const auto* ack = static_cast<const MtpAckPayload*>(envelope.inner.get());
  if (ack->origin != mote_.id()) return;  // routed near, not for us
  if (settle(transfer_key(ack->dst_label, ack->seq))) {
    stats_.acks_received++;
    emit(TransportEvent::Kind::kAcked, ack->dst_label, mote_.id(), ack->seq,
         0);
  }
}

void Transport::handle_delivery(const net::RouteEnvelope& envelope) {
  const auto* incoming =
      static_cast<const MtpPayload*>(envelope.inner.get());

  // Header piggybacking: learn where the source context's leader is, so
  // replies skip the directory.
  if (incoming->src_label.is_valid()) {
    leaders_.put(incoming->src_label,
                 LeaderInfo{incoming->src_leader, incoming->src_leader_pos,
                            mote_.now()});
  }

  if (groups_.role(incoming->dst_type) == Role::kLeader &&
      groups_.current_label(incoming->dst_type) == incoming->dst_label) {
    deliver_local(*incoming);
    return;
  }

  // Not (or no longer) the leader: act as a forwarding router along the
  // chain of past leaders.
  if (incoming->forwards >= kMaxForwards) {
    stats_.dropped_forward_limit++;
    return;
  }
  if (const LeaderInfo* info = leaders_.get(incoming->dst_label)) {
    if (info->node != mote_.id()) {
      auto copy = std::make_shared<MtpPayload>(*incoming);
      copy->forwards = static_cast<std::uint8_t>(incoming->forwards + 1);
      stats_.forwarded++;
      send_to(*info, std::move(copy));
      return;
    }
    // Stale self-entry: the table says we lead this label but the group
    // moved on (yield/relinquish/takeover raced the on_leader_stop hook, or
    // the entry was learned from old traffic). Drop the poisoned record and
    // re-resolve — the directory or a fresher table entry finds the current
    // leader instead of the message dying here.
    leaders_.erase(incoming->dst_label);
    auto copy = std::make_shared<MtpPayload>(*incoming);
    copy->forwards = static_cast<std::uint8_t>(incoming->forwards + 1);
    resolve_and_send(std::move(copy));
    return;
  }
  stats_.dropped_unknown++;
}

}  // namespace et::core
