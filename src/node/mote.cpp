#include "node/mote.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace et::node {

Mote::Mote(sim::Simulator& sim, radio::Medium& medium, env::Environment& env,
           NodeId id, Vec2 position, const CpuConfig& cpu_config)
    : sim_(sim),
      medium_(medium),
      env_(env),
      id_(id),
      position_(position),
      cpu_(sim, cpu_config),
      rng_(sim.make_rng("mote-" + std::to_string(id.value()))) {
  medium_.attach(id, position);
}

void Mote::broadcast(radio::MsgType type,
                     std::shared_ptr<const radio::Payload> payload,
                     std::optional<double> range_limit) {
  medium_.send(
      radio::Frame{id_, std::nullopt, type, std::move(payload), range_limit});
}

void Mote::unicast(NodeId dst, radio::MsgType type,
                   std::shared_ptr<const radio::Payload> payload) {
  medium_.send(radio::Frame{id_, dst, type, std::move(payload)});
}

void Mote::add_handler(radio::MsgType type, Binding binding) {
  std::uint8_t& slot = handler_slot_[static_cast<std::size_t>(type)];
  assert(slot == 0 && "each message type has exactly one owning service");
  if (handler_count_ == kMaxHandlers) {
    throw std::length_error("Mote::set_handler: more than kMaxHandlers");
  }
  handlers_[handler_count_++] = binding;
  slot = handler_count_;
}

void Mote::on_frame(const radio::Frame& frame) {
  if (down_) return;
  const std::uint8_t slot = handler_slot_[static_cast<std::size_t>(frame.type)];
  if (slot == 0) return;  // no service interested: drop silently
  // Frame processing costs CPU; under overload the post fails and the frame
  // is effectively lost inside the node.
  const Binding handler = handlers_[slot - 1];
  cpu_.post_rx([handler, frame] { handler.call(handler.context, frame); });
}

sim::EventHandle Mote::after(Duration delay, std::function<void()> fn) {
  // Timers are mote-owned events: stamping the id keeps canonical keys
  // identical no matter which engine (serial, or this mote's tile) runs the
  // scheduling code.
  return sim_.schedule_owned(static_cast<std::uint32_t>(id_.value()), delay,
                             [this, fn = std::move(fn)] {
                               if (!down_) cpu_.post_timer(fn);
                             });
}

sim::EventHandle Mote::every(Duration first_delay, Duration period,
                             std::function<void()> fn) {
  return sim_.schedule_periodic_owned(static_cast<std::uint32_t>(id_.value()),
                                      first_delay, period,
                                      [this, fn = std::move(fn)] {
                                        if (!down_) cpu_.post_timer(fn);
                                      });
}

}  // namespace et::node
