#include "node/network.hpp"

namespace et::node {

MoteNetwork::MoteNetwork(sim::Simulator& sim, radio::Medium& medium,
                         env::Environment& env, const env::Field& field,
                         CpuConfig cpu_config, const SimSelector& selector)
    : cpu_config_(cpu_config) {
  motes_.reserve(field.size());
  medium.reserve(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    const NodeId id{i};
    const Vec2 pos = field.position(id);
    sim::Simulator& mote_sim = selector ? selector(id, pos) : sim;
    motes_.push_back(
        std::make_unique<Mote>(mote_sim, medium, env, id, pos, cpu_config_));
  }
  medium.set_receiver([this](NodeId to, const radio::Frame& frame) {
    motes_[to.value()]->on_frame(frame);
  });
}

}  // namespace et::node
