#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>

#include "env/environment.hpp"
#include "node/cpu.hpp"
#include "radio/medium.hpp"
#include "radio/packet.hpp"
#include "sim/simulator.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

/// One sensor node.
///
/// A `Mote` wires together the substrate a middleware stack runs on: the
/// shared radio (frames in/out), the CPU task queue (every handler pays a
/// service-time cost), timers, the sensing hardware (delegating to the
/// `Environment` ground truth), and a per-node RNG stream. Middleware
/// services (group management, transport, directory) register one frame
/// handler per message type.
namespace et::node {

class Mote {
 public:
  /// Most handlers a mote can register: one per message type owned by a
  /// service in src/ (group management 3, routing 2, directory 1), plus two
  /// for applications.
  static constexpr std::size_t kMaxHandlers = 8;

  /// `cpu_config` must outlive the mote (MoteNetwork owns the one copy); a
  /// temporary cannot bind to it.
  Mote(sim::Simulator& sim, radio::Medium& medium, env::Environment& env,
       NodeId id, Vec2 position, const CpuConfig& cpu_config);
  Mote(sim::Simulator& sim, radio::Medium& medium, env::Environment& env,
       NodeId id, Vec2 position, CpuConfig&& cpu_config) = delete;

  Mote(const Mote&) = delete;
  Mote& operator=(const Mote&) = delete;

  NodeId id() const { return id_; }
  Vec2 position() const { return position_; }
  /// Ambient virtual time: under the parallel kernel this mote's code can
  /// be driven either by its tile simulator or (for crash/reboot and other
  /// world-initiated calls) by the master, so "now" is whichever engine is
  /// executing on the calling thread.
  Time now() const { return sim::Simulator::ambient_now(sim_); }
  sim::Simulator& sim() { return sim_; }
  Cpu& cpu() { return cpu_; }
  const Cpu& cpu() const { return cpu_; }
  Rng& rng() { return rng_; }
  radio::Medium& medium() { return medium_; }
  env::Environment& environment() { return env_; }

  // --- Sensing hardware ---

  /// The sense_e() predicate evaluated against local hardware: does this
  /// mote currently sense a target of `type`?
  bool senses(std::string_view type) const {
    return !sensor_down_ && env_.senses(type, position_, now());
  }

  /// Scalar sensor reading ("magnetic", "temperature", ...).
  double read_sensor(std::string_view channel) const {
    return sensor_down_ ? 0.0 : env_.reading(channel, position_, now());
  }

  /// Fault injection: a dropped-out sensor reads zero and senses nothing,
  /// while the CPU and radio keep running — the mote behaves like one that
  /// simply stopped seeing its targets.
  void set_sensor_down(bool down) { sensor_down_ = down; }
  bool sensor_down() const { return sensor_down_; }

  // --- Radio ---

  /// Broadcasts `payload` to everyone in range. A `range_limit` below the
  /// medium's communication radius models reduced transmit power.
  void broadcast(radio::MsgType type,
                 std::shared_ptr<const radio::Payload> payload,
                 std::optional<double> range_limit = std::nullopt);

  /// Sends `payload` addressed to `dst` (must be a direct neighbour to be
  /// received; multi-hop delivery is the routing layer's job).
  void unicast(NodeId dst, radio::MsgType type,
               std::shared_ptr<const radio::Payload> payload);

  /// Registers `service`'s member function `Handler` for one message type.
  /// At most one service owns each type. The mote stores two pointers, so
  /// registering allocates nothing.
  template <auto Handler, typename Service>
  void set_handler(radio::MsgType type, Service* service) {
    add_handler(type, Binding{service, [](void* context,
                                          const radio::Frame& frame) {
                  (static_cast<Service*>(context)->*Handler)(frame);
                }});
  }

  // --- Timers (all handler executions go through the CPU model) ---

  /// Runs `fn` as a timer task after `delay`.
  sim::EventHandle after(Duration delay, std::function<void()> fn);

  /// Runs `fn` as a timer task every `period` after `first_delay`.
  sim::EventHandle every(Duration first_delay, Duration period,
                         std::function<void()> fn);

  /// Entry point for frame arrival (the network's medium receiver calls it);
  /// posts an rx task.
  void on_frame(const radio::Frame& frame);

  /// Failure injection: a down mote neither receives frames nor fires
  /// timer tasks. (Its already-transmitted frames are unaffected.)
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  /// Brings a crashed mote back up. Frame handlers survive (they are the
  /// node's program image, not volatile state); it is the middleware's
  /// reboot path that resets service state and re-arms timers.
  void reboot() { down_ = false; }

 private:
  /// A registered handler: a context pointer and the function applying it.
  struct Binding {
    void* context = nullptr;
    void (*call)(void* context, const radio::Frame& frame) = nullptr;
  };
  void add_handler(radio::MsgType type, Binding binding);

  sim::Simulator& sim_;
  radio::Medium& medium_;
  env::Environment& env_;
  NodeId id_;
  Vec2 position_;
  Cpu cpu_;
  Rng rng_;
  bool down_ = false;
  bool sensor_down_ = false;
  /// Slot of each message type's handler in `handlers_`, plus one (0: no
  /// handler). Only registered handlers take a slot.
  std::array<std::uint8_t, radio::kMsgTypeCount> handler_slot_{};
  std::uint8_t handler_count_ = 0;
  std::array<Binding, kMaxHandlers> handlers_{};
};

}  // namespace et::node
