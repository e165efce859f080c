#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/context_type.hpp"
#include "core/group_manager.hpp"
#include "core/tracking_context.hpp"
#include "net/geo_routing.hpp"

/// Executes attached tracking objects on the group leader (§3.2.2).
///
/// "Object code is executed on a single node. In the current
/// implementation, this node is the sensor group leader of the enclosing
/// context." The runtime attaches objects when its mote assumes leadership
/// of a label and detaches them when leadership moves on: timer-invoked
/// methods run on their declared periods, condition-invoked methods fire on
/// false->true edges of their aggregate-state predicates, and
/// message-invoked methods (transport ports) run when MTP delivers a remote
/// invocation.
namespace et::core {

class Transport;  // forward: remote invocation backend

struct RuntimeStats {
  std::uint64_t timer_invocations = 0;
  std::uint64_t condition_invocations = 0;
  std::uint64_t remote_invocations = 0;
  std::uint64_t reports_to_nodes = 0;
};

class ContextRuntime {
 public:
  ContextRuntime(node::Mote& mote, const std::vector<ContextTypeSpec>& specs,
                 GroupManager& groups);

  ContextRuntime(const ContextRuntime&) = delete;
  ContextRuntime& operator=(const ContextRuntime&) = delete;

  /// Communication backends (optional; sends are dropped without them).
  void set_routing(net::GeoRouting* routing) { routing_ = routing; }
  void set_transport(Transport* transport) { transport_ = transport; }

  /// Leadership edges — wired to the GroupManager by the middleware stack.
  void on_leader_start(TypeIndex type, LabelId label,
                       const PersistentState& inherited);
  void on_leader_stop(TypeIndex type, LabelId label);

  /// Remote method invocation arriving over MTP for a label this node
  /// leads.
  void dispatch_port(TypeIndex type, LabelId label, PortId port,
                     const std::vector<double>& args, NodeId src);

  /// True when objects of `type` are currently attached here.
  bool active(TypeIndex type) const {
    return objects_ && objects_->slots[type].has_value();
  }

  /// Zero on a mote that never led.
  const RuntimeStats& stats() const;

  // --- Backend for TrackingContext ---
  node::Mote& mote() { return mote_; }
  GroupManager& groups() { return groups_; }
  const ContextTypeSpec& spec(TypeIndex type) const { return (*specs_)[type]; }
  void context_send_to_node(TypeIndex type, LabelId label, NodeId dst,
                            std::string tag, std::vector<double> data);
  void context_invoke_remote(LabelId src_label, TypeIndex dst_type,
                             LabelId dst_label, PortId port,
                             std::vector<double> args);

 private:
  struct Active {
    LabelId label;
    std::vector<sim::EventHandle> timers;
    /// Edge state per method index (condition methods only).
    std::vector<bool> condition_state;
    sim::EventHandle condition_tick;
  };

  void run_method(TypeIndex type, LabelId label, const MethodSpec& method,
                  const std::vector<double>* args, NodeId src);
  void evaluate_conditions(TypeIndex type);

  /// The object table: one slot per context type, and the invocation
  /// counts (every invocation runs on a leader).
  struct Objects {
    std::vector<std::optional<Active>> slots;
    RuntimeStats stats;
  };

  node::Mote& mote_;
  const std::vector<ContextTypeSpec>* specs_;
  GroupManager& groups_;
  net::GeoRouting* routing_ = nullptr;
  Transport* transport_ = nullptr;
  /// Allocated on this node's first leadership: most motes never lead.
  std::unique_ptr<Objects> objects_;
};

}  // namespace et::core
