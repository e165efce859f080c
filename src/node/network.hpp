#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "env/field.hpp"
#include "node/mote.hpp"

/// The deployed mote population.
///
/// Builds one `Mote` per field position (attached to the shared medium in
/// id order), installs the medium's receiver that hands each frame to its
/// mote, and provides indexed access for scenario assembly, metrics, and
/// failure injection.
namespace et::node {

class MoteNetwork {
 public:
  /// Picks the simulator driving a mote's events; the parallel kernel maps
  /// positions to spatial tiles here. Null = every mote runs on `sim`.
  using SimSelector = std::function<sim::Simulator&(NodeId, Vec2)>;

  MoteNetwork(sim::Simulator& sim, radio::Medium& medium,
              env::Environment& env, const env::Field& field,
              CpuConfig cpu_config = {}, const SimSelector& selector = {});

  MoteNetwork(const MoteNetwork&) = delete;
  MoteNetwork& operator=(const MoteNetwork&) = delete;

  std::size_t size() const { return motes_.size(); }
  Mote& mote(NodeId id) { return *motes_[id.value()]; }
  const Mote& mote(NodeId id) const { return *motes_[id.value()]; }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& m : motes_) fn(*m);
  }

 private:
  /// The deployment's one CPU configuration; every mote's Cpu refers to it.
  CpuConfig cpu_config_;
  std::vector<std::unique_ptr<Mote>> motes_;
};

}  // namespace et::node
