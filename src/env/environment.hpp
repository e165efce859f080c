#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "env/field.hpp"
#include "env/target.hpp"
#include "util/rng.hpp"

/// Ground truth of the physical world.
///
/// The `Environment` owns the set of targets and answers the two questions
/// mote sensing hardware would: (1) does a mote at position p currently
/// sense an entity of type T — the `sense_e()` predicate of §3.1 — and
/// (2) what scalar value does sensor channel c read at p. It also serves as
/// ground truth for the metrics layer (real target trajectories, who should
/// belong to which sensor group).
namespace et::env {

/// Attenuation model of a scalar channel: reading contribution of a target
/// is emission / max(d, d_min)^falloff. Magnetic effects attenuate with the
/// cube of the distance (§6.1).
struct ChannelModel {
  double falloff = 2.0;
  double min_distance = 0.1;
  double ambient = 0.0;
  double noise_stddev = 0.0;
};

class Environment {
 public:
  /// `rng` drives sensor noise only.
  explicit Environment(Rng rng = Rng{0});

  /// Registers/overrides a scalar channel model. "magnetic" (falloff 3),
  /// "light", and "temperature" (falloff 2) are pre-registered.
  void set_channel(std::string name, ChannelModel model);

  /// Adds a target; the environment takes ownership and assigns the id.
  TargetId add_target(Target target);

  /// Marks a target as gone from `t` onwards (e.g. fire extinguished).
  void remove_target_at(TargetId id, Time t);

  const Target& target(TargetId id) const;
  std::size_t target_count() const { return targets_.size(); }

  /// Ids of targets active at `t`, in creation order.
  std::vector<TargetId> active_targets(Time t) const;

  /// Ids of active targets of `type` at `t`.
  std::vector<TargetId> active_targets_of(std::string_view type,
                                          Time t) const;

  /// The sense_e() predicate: true when a mote at `pos` senses some active
  /// target of `type` at time `t`.
  bool senses(std::string_view type, Vec2 pos, Time t) const;

  /// All active targets (any type) sensed from `pos` at `t`.
  std::vector<TargetId> sensed_targets(Vec2 pos, Time t) const;

  /// Scalar reading of `channel` at `pos`, time `t`: ambient + per-target
  /// contributions + Gaussian noise. Unknown channels read as pure noise
  /// around zero.
  double reading(std::string_view channel, Vec2 pos, Time t) const;

  /// Materialises lazily generated trajectory state (random-walk segments)
  /// for every query time <= `t`. The parallel kernel calls this before
  /// each tile window so concurrent position_at/senses/reading calls are
  /// pure reads. Note: channels with noise_stddev > 0 draw from a shared
  /// RNG per reading, so they are not usable on the parallel kernel, whose
  /// tiles read concurrently (every built-in scenario leaves noise at 0).
  void prepare(Time t) const;

 private:
  std::vector<std::unique_ptr<Target>> targets_;
  std::map<std::string, ChannelModel, std::less<>> channels_;
  mutable Rng rng_;
};

}  // namespace et::env
