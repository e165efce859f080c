#include "core/directory.hpp"

#include <cassert>

#include "util/log.hpp"

namespace et::core {

namespace {

constexpr const char* kComponent = "directory";

/// Entries older than this are dropped ("occasional updates ... keep the
/// location information up to date").
constexpr Duration kEntryTtl = Duration::seconds(20);
/// Unanswered queries fail after this long.
constexpr Duration kQueryTimeout = Duration::seconds(3);
/// Primary directory nodes replicate entries one hop around the hash
/// point; replicas within this distance of the hash point store them.
constexpr double kReplicaRadius = 6.0;

class DirUpdatePayload final : public radio::Payload {
 public:
  DirUpdatePayload(TypeIndex type, DirectoryEntry entry, bool retire = false)
      : type(type), entry(entry), retire(retire) {}
  std::size_t size_bytes() const override { return 29; }

  TypeIndex type;
  DirectoryEntry entry;
  /// Withdrawal: erase the entry (label died) instead of refreshing it.
  bool retire;
};

class DirFencePayload final : public radio::Payload {
 public:
  DirFencePayload(TypeIndex type, LabelId label, std::uint64_t epoch,
                  NodeId incumbent, Vec2 incumbent_pos)
      : type(type), label(label), epoch(epoch), incumbent(incumbent),
        incumbent_pos(incumbent_pos) {}
  std::size_t size_bytes() const override { return 29; }

  TypeIndex type;
  LabelId label;
  /// High-water epoch registered for the label.
  std::uint64_t epoch;
  /// The leader registered under that epoch, and where it registered
  /// from — the fenced leader uses the position to tell a genuinely
  /// unreachable incumbent from a nearby duel rival.
  NodeId incumbent;
  Vec2 incumbent_pos;
};

class DirQueryPayload final : public radio::Payload {
 public:
  DirQueryPayload(TypeIndex type, std::uint32_t query_id, NodeId origin,
                  Vec2 origin_pos)
      : type(type), query_id(query_id), origin(origin),
        origin_pos(origin_pos) {}
  std::size_t size_bytes() const override { return 16; }

  TypeIndex type;
  std::uint32_t query_id;
  NodeId origin;
  Vec2 origin_pos;
};

class DirReplyPayload final : public radio::Payload {
 public:
  DirReplyPayload(std::uint32_t query_id, std::vector<DirectoryEntry> entries)
      : query_id(query_id), entries(std::move(entries)) {}
  std::size_t size_bytes() const override { return 6 + entries.size() * 20; }

  std::uint32_t query_id;
  std::vector<DirectoryEntry> entries;
};

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Vec2 directory_hash_point(std::string_view type_name, Rect bounds) {
  const std::uint64_t h = fnv1a(type_name);
  const double fx = static_cast<double>(h & 0xffffffffu) / 4294967296.0;
  const double fy = static_cast<double>(h >> 32) / 4294967296.0;
  return {bounds.min.x + fx * bounds.width(),
          bounds.min.y + fy * bounds.height()};
}

Directory::Directory(node::Mote& mote, net::GeoRouting& routing,
                     const std::vector<ContextTypeSpec>& specs,
                     Rect field_bounds, DirectoryConfig config)
    : mote_(mote),
      routing_(routing),
      specs_(&specs),
      config_(config),
      store_(specs.size()),
      update_timers_(specs.size()),
      current_label_(specs.size()),
      current_epoch_(specs.size(), 0) {
  hash_points_.reserve(specs.size());
  for (const ContextTypeSpec& spec : specs) {
    hash_points_.push_back(directory_hash_point(spec.name, field_bounds));
  }
  routing_.on_delivery(radio::MsgType::kDirUpdate,
                       [this](const net::RouteEnvelope& e) {
                         handle_update(e);
                       });
  routing_.on_delivery(radio::MsgType::kDirQuery,
                       [this](const net::RouteEnvelope& e) {
                         handle_query(e);
                       });
  routing_.on_delivery(radio::MsgType::kDirReply,
                       [this](const net::RouteEnvelope& e) {
                         handle_reply(e);
                       });
  routing_.on_delivery(radio::MsgType::kDirFence,
                       [this](const net::RouteEnvelope& e) {
                         handle_fence(e);
                       });
  // Replica path: primaries rebroadcast stored updates one hop.
  mote_.set_handler<&Directory::handle_replica>(radio::MsgType::kDirUpdate,
                                                this);
}

void Directory::handle_replica(const radio::Frame& frame) {
  const auto* payload =
      static_cast<const DirUpdatePayload*>(frame.payload.get());
  if (distance(mote_.position(), hash_points_[payload->type]) <=
      kReplicaRadius) {
    if (payload->retire) {
      remove(payload->type, payload->entry);
    } else {
      stats_.replicas_stored++;
      store(payload->type, payload->entry, true);
    }
  }
}

void Directory::on_leader_start(TypeIndex type, LabelId label,
                                std::uint64_t epoch) {
  current_label_[type] = label;
  current_epoch_[type] = epoch;
  send_update(type);
  update_timers_[type].cancel();
  update_timers_[type] =
      mote_.every(config_.update_period, config_.update_period,
                  [this, type] { send_update(type); });
}

void Directory::on_leader_stop(TypeIndex type, LabelId label) {
  (void)label;
  current_label_[type] = LabelId{};
  current_epoch_[type] = 0;
  update_timers_[type].cancel();
}

void Directory::reboot() {
  for (std::size_t t = 0; t < store_.size(); ++t) {
    update_timers_[t].cancel();
    current_label_[t] = LabelId{};
    current_epoch_[t] = 0;
    store_[t].clear();
  }
  for (auto& [id, pending] : pending_) pending.timeout.cancel();
  pending_.clear();
}

void Directory::send_update(TypeIndex type) {
  // Guard: leadership may have lapsed between the timer post and execution.
  const DirectoryEntry entry{current_label_[type], mote_.id(),
                             mote_.position(), mote_.now(),
                             current_epoch_[type]};
  if (!entry.label.is_valid()) return;
  stats_.updates_sent++;
  routing_.send(hash_points_[type], radio::MsgType::kDirUpdate,
                std::make_shared<DirUpdatePayload>(type, entry));
}

void Directory::handle_update(const net::RouteEnvelope& envelope) {
  const auto* payload =
      static_cast<const DirUpdatePayload*>(envelope.inner.get());
  if (payload->retire) {
    remove(payload->type, payload->entry);
  } else {
    stats_.updates_stored++;
    if (!store(payload->type, payload->entry, false)) {
      // The refresh came from a stale incarnation of the label (a leader
      // that missed its own succession, typically across a partition).
      // Unlike heartbeats and member reports, the directory rendezvous is
      // reachable from anywhere the routing layer can reach, so a fence
      // notice routed back retires stale leaders that no radio-local
      // evidence would ever catch. Rivals within radio range of the
      // incumbent are NOT fenced: the heartbeat duel resolves those in one
      // beat with group continuity, and takeover races would otherwise
      // flood the field with parasitic fence traffic.
      const DirectoryEntry& incumbent =
          store_[payload->type].at(payload->entry.label);
      if (distance(payload->entry.location, incumbent.location) >
          mote_.medium().config().comm_radius) {
        stats_.fences_sent++;
        routing_.send(payload->entry.location, radio::MsgType::kDirFence,
                      std::make_shared<DirFencePayload>(
                          payload->type, payload->entry.label,
                          incumbent.epoch, incumbent.leader,
                          incumbent.location),
                      payload->entry.leader);
      }
    }
  }
  mote_.broadcast(radio::MsgType::kDirUpdate, envelope.inner);
}

void Directory::handle_fence(const net::RouteEnvelope& envelope) {
  const auto* payload =
      static_cast<const DirFencePayload*>(envelope.inner.get());
  stats_.fences_received++;
  if (fenced_cb_) {
    fenced_cb_(payload->type, payload->label, payload->epoch,
               payload->incumbent, payload->incumbent_pos);
  }
}

void Directory::retire_label(TypeIndex type, LabelId label,
                             std::uint64_t epoch) {
  const DirectoryEntry entry{label, mote_.id(), mote_.position(), mote_.now(),
                             epoch};
  stats_.retires_sent++;
  routing_.send(hash_points_[type], radio::MsgType::kDirUpdate,
                std::make_shared<DirUpdatePayload>(type, entry, true));
}

void Directory::remove(TypeIndex type, const DirectoryEntry& entry) {
  auto& entries = store_[type];
  auto it = entries.find(entry.label);
  // A stale incarnation cannot withdraw its successor's registration.
  if (it == entries.end() || it->second.epoch > entry.epoch) return;
  entries.erase(it);
  stats_.entries_retired++;
}

bool Directory::store(TypeIndex type, const DirectoryEntry& entry,
                      bool replica) {
  (void)replica;
  auto& entries = store_[type];
  auto it = entries.find(entry.label);
  if (it == entries.end()) {
    entries[entry.label] = entry;
    return true;
  }
  // Epoch fencing: a stale incarnation's refresh must never displace the
  // successor's entry, no matter how fresh its timestamp is. Within one
  // epoch the newest timestamp wins as before — unless it comes from a
  // *different* leader: two incarnations at the same epoch (e.g. a label
  // fissioned by a migrating stimulus) are resolved with the heartbeat
  // duel's tie-break, lower node id wins, so the directory converges on
  // the same incumbent the duel would pick.
  if (entry.epoch < it->second.epoch ||
      (entry.epoch == it->second.epoch && entry.leader != it->second.leader &&
       entry.leader.value() > it->second.leader.value())) {
    stats_.updates_fenced++;
    return false;
  }
  if (entry.epoch > it->second.epoch ||
      entry.leader.value() < it->second.leader.value() ||
      it->second.updated <= entry.updated) {
    it->second = entry;
  }
  return true;
}

void Directory::prune(TypeIndex type) const {
  const Time horizon = mote_.now() - kEntryTtl;
  auto& entries = store_[type];
  for (auto it = entries.begin(); it != entries.end();) {
    if (it->second.updated < horizon) {
      it = entries.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<DirectoryEntry> Directory::local_entries(TypeIndex type) const {
  prune(type);
  std::vector<DirectoryEntry> out;
  out.reserve(store_[type].size());
  for (const auto& [label, entry] : store_[type]) out.push_back(entry);
  return out;
}

void Directory::query(TypeIndex type, QueryCallback callback) {
  const std::uint32_t id = next_query_id_++;
  stats_.queries_sent++;
  PendingQuery pending;
  pending.callback = std::move(callback);
  pending.timeout = mote_.sim().schedule(kQueryTimeout, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    stats_.query_timeouts++;
    QueryCallback cb = std::move(it->second.callback);
    pending_.erase(it);
    cb(false, {});
  });
  pending_[id] = std::move(pending);
  routing_.send(hash_points_[type], radio::MsgType::kDirQuery,
                std::make_shared<DirQueryPayload>(type, id, mote_.id(),
                                                  mote_.position()));
}

void Directory::handle_query(const net::RouteEnvelope& envelope) {
  const auto* payload =
      static_cast<const DirQueryPayload*>(envelope.inner.get());
  stats_.queries_answered++;
  routing_.send(payload->origin_pos, radio::MsgType::kDirReply,
                std::make_shared<DirReplyPayload>(
                    payload->query_id, local_entries(payload->type)),
                payload->origin);
}

void Directory::handle_reply(const net::RouteEnvelope& envelope) {
  const auto* payload =
      static_cast<const DirReplyPayload*>(envelope.inner.get());
  auto it = pending_.find(payload->query_id);
  if (it == pending_.end()) return;  // timed out already
  it->second.timeout.cancel();
  stats_.replies_received++;
  QueryCallback cb = std::move(it->second.callback);
  pending_.erase(it);
  cb(true, payload->entries);
}

}  // namespace et::core
