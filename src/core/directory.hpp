#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/context_type.hpp"
#include "net/geo_routing.hpp"
#include "util/geometry.hpp"

/// Object naming and directory services (§5.3).
///
/// The type name of a context is hashed to an (x, y) coordinate in the
/// field; the nodes around that coordinate form the *directory object* for
/// the type, maintaining a mapping from context label to last-reported
/// location. Leaders push periodic location updates; any node can query
/// ("where are all the fires?") and receives the label list routed back.
/// The primary directory node replicates entries to its one-hop neighbours
/// so the directory survives individual node failures.
namespace et::core {

struct DirectoryEntry {
  LabelId label;
  NodeId leader;
  Vec2 location;
  Time updated;
  /// Leadership epoch of the reporting leader; the store keeps the highest
  /// epoch seen per label so a stale (pre-partition) leader's refreshes
  /// cannot overwrite its successor's entry.
  std::uint64_t epoch = 0;
};

struct DirectoryConfig {
  /// How often a leader refreshes its label's directory entry.
  Duration update_period = Duration::seconds(5);
};

struct DirectoryStats {
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_stored = 0;
  std::uint64_t replicas_stored = 0;
  std::uint64_t queries_sent = 0;
  std::uint64_t queries_answered = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t query_timeouts = 0;
  /// Updates rejected because a higher-epoch entry for the label exists.
  std::uint64_t updates_fenced = 0;
  /// Fence notices routed back to the stale updater (primary view).
  std::uint64_t fences_sent = 0;
  /// Fence notices this node received about a label it claimed to lead.
  std::uint64_t fences_received = 0;
  /// Withdrawal updates sent for labels that died by suppression.
  std::uint64_t retires_sent = 0;
  /// Entries erased by a withdrawal (primary or replica view).
  std::uint64_t entries_retired = 0;
};

/// Hashes a context type name to a coordinate inside `bounds`. Pure
/// function of the name — every node computes the same rendezvous point.
Vec2 directory_hash_point(std::string_view type_name, Rect bounds);

/// Per-mote directory service. Consumes kDirUpdate / kDirQuery / kDirReply
/// envelopes delivered by the routing layer.
class Directory {
 public:
  using QueryCallback =
      std::function<void(bool ok, const std::vector<DirectoryEntry>&)>;
  /// (type, label, high-water epoch, incumbent leader, incumbent position):
  /// the directory rejected this node's refresh because a newer incarnation
  /// of the label is registered.
  using FencedCallback =
      std::function<void(TypeIndex, LabelId, std::uint64_t, NodeId, Vec2)>;

  Directory(node::Mote& mote, net::GeoRouting& routing,
            const std::vector<ContextTypeSpec>& specs, Rect field_bounds,
            DirectoryConfig config = {});

  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  /// Leadership edges, wired by the middleware stack: while this node
  /// leads `label` it refreshes the directory entry periodically, stamping
  /// each update with the leadership `epoch` it leads under.
  void on_leader_start(TypeIndex type, LabelId label, std::uint64_t epoch);
  void on_leader_stop(TypeIndex type, LabelId label);
  /// The sitting leader absorbed a higher epoch mid-leadership; later
  /// refreshes must carry it or they would be fenced as stale.
  void on_epoch_change(TypeIndex type, std::uint64_t epoch) {
    if (current_label_[type].is_valid()) current_epoch_[type] = epoch;
  }

  /// Withdraws `label`'s registration (it died by suppression): a retire
  /// update routes to the directory object and erases the entry unless a
  /// newer incarnation (higher epoch) has registered since.
  void retire_label(TypeIndex type, LabelId label, std::uint64_t epoch);

  /// Node-reboot hook: cancels refresh timers and in-flight queries
  /// (callbacks are dropped, not invoked) and wipes the local entry store —
  /// replicas repopulate it from peers' periodic updates.
  void reboot();

  /// Wired by the middleware into the group layer: fires when a kDirFence
  /// notice arrives, i.e. the directory holds a higher-epoch registration
  /// for a label this node refreshes as leader. The group manager uses it
  /// to step a stale (post-partition) leader down even when the successor
  /// is out of heartbeat range — the directory is the one rendezvous both
  /// incarnations still share.
  void set_leader_fenced(FencedCallback callback) {
    fenced_cb_ = std::move(callback);
  }

  /// Asks the directory object of `type` for all active labels. The
  /// callback fires exactly once: with the reply, or with ok=false on
  /// timeout.
  void query(TypeIndex type, QueryCallback callback);

  /// Entries this node stores for `type` (primary or replica view).
  std::vector<DirectoryEntry> local_entries(TypeIndex type) const;

  /// The rendezvous point for a type in this deployment.
  Vec2 hash_point(TypeIndex type) const { return hash_points_[type]; }

  const DirectoryStats& stats() const { return stats_; }

 private:
  struct PendingQuery {
    QueryCallback callback;
    sim::EventHandle timeout;
  };

  void send_update(TypeIndex type);
  void handle_update(const net::RouteEnvelope& envelope);
  void handle_query(const net::RouteEnvelope& envelope);
  void handle_reply(const net::RouteEnvelope& envelope);
  void handle_fence(const net::RouteEnvelope& envelope);
  /// Replica path: a primary's one-hop rebroadcast of a stored update.
  void handle_replica(const radio::Frame& frame);
  /// Returns false when the update was fenced by a higher-epoch entry.
  bool store(TypeIndex type, const DirectoryEntry& entry, bool replica);
  void remove(TypeIndex type, const DirectoryEntry& entry);
  void prune(TypeIndex type) const;

  node::Mote& mote_;
  net::GeoRouting& routing_;
  const std::vector<ContextTypeSpec>* specs_;
  DirectoryConfig config_;
  std::vector<Vec2> hash_points_;

  /// type -> label -> entry (primary + replicated).
  mutable std::vector<std::map<LabelId, DirectoryEntry>> store_;
  /// Labels this node currently leads, with their refresh timers.
  std::vector<sim::EventHandle> update_timers_;  // per type
  std::vector<LabelId> current_label_;           // per type; invalid if none
  std::vector<std::uint64_t> current_epoch_;     // per type; 0 if not leading
  std::unordered_map<std::uint32_t, PendingQuery> pending_;
  std::uint32_t next_query_id_ = 1;
  FencedCallback fenced_cb_;
  DirectoryStats stats_;
};

}  // namespace et::core
