#pragma once

#include <memory>
#include <vector>

#include "core/middleware.hpp"
#include "env/environment.hpp"
#include "env/field.hpp"
#include "node/network.hpp"
#include "radio/medium.hpp"
#include "sim/kernel_config.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

/// Deployment-level facade: "the sensor network, with EnviroTrack on it".
///
/// This is the library's top-level entry point. A user constructs the
/// simulator, the environment, and a field layout; registers sense
/// predicates and (optionally) custom aggregations; declares context types
/// (directly or via the EnviroTrack language, src/etl); and starts the
/// system. The facade owns the medium, the mote population, one middleware
/// stack per mote, and — when `SystemConfig::kernel` asks for it — the
/// parallel tiled kernel that drives them all. Callers should advance time
/// through `run_until`/`run_for` on the system rather than on the raw
/// simulator, so the same scenario code runs on every kernel.
namespace et::core {

struct SystemConfig {
  radio::RadioConfig radio;
  node::CpuConfig cpu;
  MiddlewareConfig middleware;
  sim::KernelConfig kernel;
};

class EnviroTrackSystem {
 public:
  EnviroTrackSystem(sim::Simulator& sim, env::Environment& env,
                    const env::Field& field, SystemConfig config = {});

  EnviroTrackSystem(const EnviroTrackSystem&) = delete;
  EnviroTrackSystem& operator=(const EnviroTrackSystem&) = delete;

  /// Registries to populate before start(). The aggregation registry comes
  /// pre-loaded with the built-ins.
  SenseRegistry& senses() { return senses_; }
  AggregationRegistry& aggregations() { return aggregations_; }

  /// Declares a context type. All declarations must precede start().
  /// Returns the type's index.
  TypeIndex add_context_type(ContextTypeSpec spec);

  /// Installs middleware on every mote and begins operation.
  void start();
  bool started() const { return started_; }

  /// Advances the world to `deadline` on whichever kernel this system was
  /// configured with. Returns events fired.
  std::size_t run_until(Time deadline);
  std::size_t run_for(Duration span) { return run_until(sim_.now() + span); }

  // --- Access ---
  sim::Simulator& sim() { return sim_; }
  radio::Medium& medium() { return medium_; }
  node::MoteNetwork& network() { return network_; }
  env::Environment& environment() { return env_; }
  const env::Field& field() const { return field_; }
  const std::vector<ContextTypeSpec>& specs() const { return specs_; }
  const SystemConfig& config() const { return config_; }
  /// Non-null when running on the parallel kernel.
  sim::ParallelKernel* kernel() { return kernel_.get(); }

  MiddlewareStack& stack(NodeId id) { return *stacks_[id.value()]; }
  std::size_t node_count() const { return network_.size(); }

  /// Subscribes `observer` to group events on every mote (metrics layer).
  /// Must be called after start(). Each event is journaled through the
  /// master simulator as one channel op that calls every observer
  /// registered when the event was emitted, in registration order. So
  /// observers run single-threaded, in canonical event order and just after
  /// the emitting event, even when the emitting motes execute on tile
  /// threads.
  void add_group_observer(GroupObserver* observer);

  /// Subscribes `observer` to transport events on every mote that runs a
  /// transport, journaled exactly like group events. Must be called after
  /// start().
  void add_transport_observer(TransportObserver* observer);

  /// Nodes whose group manager currently leads `type`, in ascending id
  /// order; empty for a type that was never declared. A crashed node leads
  /// nothing: its group manager drops every role on crash.
  std::vector<NodeId> leaders(TypeIndex type) const;

  /// Failure injection: crash-stops one node.
  void crash_node(NodeId id);

  /// Brings a crashed node back up with factory-fresh middleware state.
  void reboot_node(NodeId id);

 private:
  sim::Simulator& sim_;
  env::Environment& env_;
  const env::Field& field_;
  /// The one copy of the deployment's config: every stack and group manager
  /// refers to `config_.middleware`, so it is declared before `stacks_`.
  SystemConfig config_;
  /// Constructed before the network so mote construction can ask it for
  /// tile assignment; null on the serial kernel.
  std::unique_ptr<sim::ParallelKernel> kernel_;
  radio::Medium medium_;
  node::MoteNetwork network_;
  SenseRegistry senses_;
  AggregationRegistry aggregations_;
  std::vector<ContextTypeSpec> specs_;
  /// `specs_` resolved once for every group manager (set by start()).
  std::vector<GroupTypeProfile> group_types_;
  /// The deployment's observers, in registration order: the one list of
  /// each kind that every group manager and transport reads.
  std::vector<GroupObserver*> group_observers_;
  std::vector<TransportObserver*> transport_observers_;
  /// What every group manager and transport refers to.
  GroupDeployment group_deployment_{specs_,
                                    group_types_,
                                    aggregations_,
                                    config_.middleware.group,
                                    sim_,
                                    group_observers_,
                                    transport_observers_};
  std::vector<std::unique_ptr<MiddlewareStack>> stacks_;
  bool started_ = false;
};

}  // namespace et::core
