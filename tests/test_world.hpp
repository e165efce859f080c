#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/system.hpp"
#include "metrics/event_log.hpp"

/// Shared middleware test harness.
///
/// Builds a small grid deployment with one "blob" context type (activation
/// = binary-disc sensing of targets of type "blob", one position aggregate
/// `where`, one scalar aggregate `strength`), a lossless channel by default
/// (deterministic protocol tests), and an attached event log. Tests add
/// stationary or moving blob targets and drive the simulator directly.
namespace et::test {

class TestWorld {
 public:
  struct Options {
    std::size_t rows = 3;
    std::size_t cols = 8;
    double comm_radius = 6.0;
    double sensing_radius = 1.2;
    double loss_probability = 0.0;  // lossless by default
    bool model_collisions = false;  // deterministic by default
    core::GroupConfig group;
    core::TransportConfig transport;
    core::DirectoryConfig directory;
    node::CpuConfig cpu;
    radio::BurstLossConfig burst_loss;
    /// 0 keeps the RadioConfig default; 1 forces every broadcast delivery
    /// through the parallel fan-out path (stress tests).
    std::size_t fanout_min_receivers = 0;
    bool enable_directory = false;
    bool enable_transport = false;
    std::size_t critical_mass = 2;
    Duration freshness = Duration::seconds(1);
    /// Kernel selection (serial / parallel).
    sim::KernelConfig kernel;
    std::uint64_t seed = 1;
    /// Hook to adjust the blob spec (attach objects, tweak variables)
    /// before the system starts.
    std::function<void(core::ContextTypeSpec&)> mutate_spec;
    /// Extra context types to declare after "blob".
    std::vector<core::ContextTypeSpec> extra_specs;
    /// Extra sense predicates, registered before the system starts.
    std::vector<std::pair<std::string, core::SensePredicate>> extra_senses;
  };

  TestWorld() : TestWorld(Options{}) {}

  explicit TestWorld(Options options)
      : options_(options),
        sim_(options.seed),
        env_(sim_.make_rng("env")),
        field_(env::Field::grid(options.rows, options.cols)) {
    core::SystemConfig config;
    config.radio.comm_radius = options.comm_radius;
    config.radio.loss_probability = options.loss_probability;
    config.radio.model_collisions = options.model_collisions;
    config.radio.carrier_sense_miss =
        options.model_collisions ? 0.1 : 0.0;
    config.radio.burst_loss = options.burst_loss;
    if (options.fanout_min_receivers > 0) {
      config.radio.fanout_min_receivers = options.fanout_min_receivers;
    }
    config.cpu = options.cpu;
    config.middleware.group = options.group;
    config.middleware.transport = options.transport;
    config.middleware.directory = options.directory;
    config.middleware.group.suppression_radius =
        std::max(options.group.suppression_radius,
                 2.0 * options.sensing_radius);
    config.middleware.group.wait_radius = std::max(
        options.group.wait_radius, options.sensing_radius + 1.5);
    config.middleware.enable_directory = options.enable_directory;
    config.middleware.enable_transport = options.enable_transport;
    config.kernel = options.kernel;
    system_.emplace(sim_, env_, field_, config);

    system_->senses().add("blob_sensor", core::sense_target("blob"));
    for (auto& [name, predicate] : options.extra_senses) {
      system_->senses().add(name, std::move(predicate));
    }

    core::ContextTypeSpec spec;
    spec.name = "blob";
    spec.activation = "blob_sensor";
    spec.variables.push_back(core::AggregateVarSpec{
        "where", "avg", "position", options.freshness,
        options.critical_mass});
    spec.variables.push_back(core::AggregateVarSpec{
        "strength", "avg", "magnetic", options.freshness,
        options.critical_mass});
    if (options.mutate_spec) options.mutate_spec(spec);
    blob_type_ = system_->add_context_type(std::move(spec));
    for (auto& extra : options.extra_specs) {
      system_->add_context_type(std::move(extra));
    }

    system_->start();
    system_->add_group_observer(&events_);
  }

  TargetId add_blob(Vec2 at, double radius = -1.0) {
    env::Target blob;
    blob.type = "blob";
    blob.trajectory = std::make_unique<env::StationaryTrajectory>(at);
    blob.radius = env::RadiusProfile::constant(
        radius > 0 ? radius : options_.sensing_radius);
    blob.emissions["magnetic"] = 10.0;
    return env_.add_target(std::move(blob));
  }

  TargetId add_moving_blob(Vec2 from, Vec2 to, double speed,
                           double radius = -1.0) {
    env::Target blob;
    blob.type = "blob";
    blob.trajectory =
        std::make_unique<env::LinearTrajectory>(from, to, speed);
    blob.radius = env::RadiusProfile::constant(
        radius > 0 ? radius : options_.sensing_radius);
    blob.emissions["magnetic"] = 10.0;
    return env_.add_target(std::move(blob));
  }

  void run(double seconds) { system_->run_for(Duration::seconds(seconds)); }

  /// Nodes currently leading the blob type.
  std::vector<NodeId> leaders(core::TypeIndex type = 0) {
    return system_->leaders(type);
  }

  std::vector<NodeId> members(core::TypeIndex type = 0) {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < system_->node_count(); ++i) {
      if (system_->stack(NodeId{i}).groups().role(type) ==
          core::Role::kMember) {
        out.push_back(NodeId{i});
      }
    }
    return out;
  }

  /// The unique leader, asserting there is exactly one.
  std::optional<NodeId> sole_leader(core::TypeIndex type = 0) {
    auto all = leaders(type);
    if (all.size() != 1) return std::nullopt;
    return all.front();
  }

  sim::Simulator& sim() { return sim_; }
  env::Environment& env() { return env_; }
  const env::Field& field() const { return field_; }
  core::EnviroTrackSystem& system() { return *system_; }
  metrics::EventLog& events() { return events_; }
  core::TypeIndex blob_type() const { return blob_type_; }
  core::GroupManager& groups(NodeId id) {
    return system_->stack(id).groups();
  }

 private:
  Options options_;
  sim::Simulator sim_;
  env::Environment env_;
  env::Field field_;
  std::optional<core::EnviroTrackSystem> system_;
  metrics::EventLog events_;
  core::TypeIndex blob_type_ = 0;
};

}  // namespace et::test
