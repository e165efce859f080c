#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/app_messages.hpp"
#include "core/context_runtime.hpp"
#include "core/directory.hpp"
#include "core/duty_cycle.hpp"
#include "core/group_manager.hpp"
#include "core/static_object.hpp"
#include "core/transport.hpp"
#include "net/geo_routing.hpp"

/// The full per-mote EnviroTrack middleware stack.
///
/// Assembles and wires the services each sensor node runs: geographic
/// routing, group management, the tracking-object runtime, the directory,
/// and MTP. Leadership edges from the group manager fan out to the runtime
/// (attach/detach objects) and the directory (register/refresh the label);
/// heartbeat observations feed the transport's last-known-leader table.
namespace et::core {

struct MiddlewareConfig {
  GroupConfig group;
  net::RoutingConfig routing;
  DirectoryConfig directory;
  TransportConfig transport;
  DutyCycleConfig duty_cycle;
  /// Disable to study the group layer in isolation (saves directory /
  /// transport traffic).
  bool enable_directory = true;
  bool enable_transport = true;
  /// Sleep the receiver of unengaged motes (energy extension; off by
  /// default — the paper's prototype keeps radios on).
  bool enable_duty_cycle = false;
};

class MiddlewareStack final : private LeadershipListener {
 public:
  /// Handler for application messages (tracking-object reports) consumed at
  /// this node — the base-station role.
  using UserHandler =
      std::function<void(const UserMessagePayload&, NodeId origin)>;

  /// `groups` and `config` are deployment-wide (owned by
  /// EnviroTrackSystem) and must outlive the stack; `groups.config` is
  /// `config.group`.
  MiddlewareStack(node::Mote& mote, const GroupDeployment& groups,
                  Rect field_bounds, const MiddlewareConfig& config);

  MiddlewareStack(const MiddlewareStack&) = delete;
  MiddlewareStack& operator=(const MiddlewareStack&) = delete;

  /// Starts sense polling (and with it the whole protocol machinery).
  void start() { groups_.start(); }

  /// Failure injection: silences this node entirely. The receiver is
  /// powered down until reboot(); repeated calls are no-ops.
  void crash();

  /// Brings a crashed node back up: the mote revives, the receiver powers
  /// on, every service wipes its volatile state (roles, caches, pending
  /// queries) and the group manager resumes sense polling. Persistent
  /// tracking state is NOT restored locally — the §5.2 handoff must come
  /// from surviving peers. No-op unless the node is down.
  void reboot();

  /// Registers an application consumer of kUser envelopes at this node.
  /// Handlers accumulate: each registered handler sees every message, in
  /// registration order — the base station can feed the Fig. 3 track
  /// recorder and the serving tier's ingest path at the same time.
  void on_user_message(UserHandler handler);

  /// Hosts a static object (§3.2) on this node: its timer methods run for
  /// the node's lifetime and it receives application messages consumed
  /// here. Returns a stable reference owned by the stack.
  StaticObject& add_static_object(StaticObjectSpec spec);

  node::Mote& mote() { return mote_; }
  net::GeoRouting& routing() { return routing_; }
  GroupManager& groups() { return groups_; }
  ContextRuntime& runtime() { return runtime_; }
  Directory* directory() { return directory_.get(); }
  Transport* transport() { return transport_.get(); }
  DutyCycleController* duty_cycle() { return duty_cycle_.get(); }

 private:
  // LeadershipListener: the group manager's edges, fanned out to the
  // runtime, the directory and the transport.
  void on_leader_start(TypeIndex type, LabelId label,
                       const PersistentState& state) override;
  void on_leader_stop(TypeIndex type, LabelId label) override;
  void on_leader_observed(TypeIndex type, LabelId label, NodeId leader,
                          Vec2 leader_pos) override;
  void on_epoch_changed(TypeIndex type, std::uint64_t epoch) override;
  void on_label_retired(TypeIndex type, LabelId label,
                        std::uint64_t epoch) override;

  /// What a node needs once it consumes application messages: only base
  /// stations (and static-object hosts) ever do.
  struct UserConsumers {
    std::vector<UserHandler> handlers;
    std::vector<std::unique_ptr<StaticObject>> static_objects;
  };
  /// The consumers, allocated on first use together with the routing
  /// consumer of kUser envelopes that feeds them.
  UserConsumers& user_consumers();

  node::Mote& mote_;
  /// Read again by reboot(): the duty-cycle controller is destroyed on
  /// crash and rebuilt from this config when the node comes back.
  const MiddlewareConfig& config_;
  net::GeoRouting routing_;
  GroupManager groups_;
  ContextRuntime runtime_;
  std::unique_ptr<Directory> directory_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<DutyCycleController> duty_cycle_;
  std::unique_ptr<UserConsumers> user_consumers_;
};

}  // namespace et::core
