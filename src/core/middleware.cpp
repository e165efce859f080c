#include "core/middleware.hpp"

#include <cassert>

namespace et::core {

MiddlewareStack::MiddlewareStack(node::Mote& mote,
                                 const GroupDeployment& groups,
                                 Rect field_bounds,
                                 const MiddlewareConfig& config)
    : mote_(mote),
      config_(config),
      routing_(mote, config.routing),
      groups_(mote, groups),
      runtime_(mote, groups.specs, groups_) {
  assert(&groups.config == &config.group);
  runtime_.set_routing(&routing_);

  if (config.enable_directory) {
    directory_ = std::make_unique<Directory>(
        mote, routing_, groups.specs, field_bounds, config.directory);
  }
  if (config.enable_transport) {
    transport_ = std::make_unique<Transport>(
        mote, routing_, groups_, runtime_, directory_.get(),
        config.transport);
  }
  if (config.enable_duty_cycle) {
    duty_cycle_ = std::make_unique<DutyCycleController>(mote, groups_,
                                                        config.duty_cycle);
  }

  groups_.set_listener(this);
  if (directory_) {
    directory_->set_leader_fenced(
        [this](TypeIndex type, LabelId label, std::uint64_t epoch,
               NodeId incumbent, Vec2 incumbent_pos) {
          groups_.on_directory_fence(type, label, epoch, incumbent,
                                     incumbent_pos);
        });
  }
}

void MiddlewareStack::on_leader_start(TypeIndex type, LabelId label,
                                      const PersistentState& state) {
  runtime_.on_leader_start(type, label, state);
  // become_leader records the epoch before notifying, so current_epoch()
  // is already the epoch this node leads under.
  if (directory_) {
    directory_->on_leader_start(type, label, groups_.current_epoch(type));
  }
}

void MiddlewareStack::on_leader_stop(TypeIndex type, LabelId label) {
  runtime_.on_leader_stop(type, label);
  if (directory_) directory_->on_leader_stop(type, label);
  if (transport_) transport_->on_leader_stop(type, label);
}

void MiddlewareStack::on_leader_observed(TypeIndex type, LabelId label,
                                         NodeId leader, Vec2 leader_pos) {
  if (transport_) {
    transport_->on_leader_observed(type, label, leader, leader_pos);
  }
}

void MiddlewareStack::on_epoch_changed(TypeIndex type, std::uint64_t epoch) {
  if (directory_) directory_->on_epoch_change(type, epoch);
}

void MiddlewareStack::on_label_retired(TypeIndex type, LabelId label,
                                       std::uint64_t epoch) {
  if (directory_) directory_->retire_label(type, label, epoch);
}

void MiddlewareStack::crash() {
  if (mote_.is_down()) return;
  groups_.crash();
  duty_cycle_.reset();  // stop toggling the (now dead) radio
  mote_.set_down(true);
  // A crashed node draws no receive power and hears nothing; reboot() is
  // the only path that turns the receiver back on. (The controller's
  // destructor above re-enabled it, so order matters.)
  mote_.medium().set_receiver_enabled(mote_.id(), false);
}

void MiddlewareStack::reboot() {
  if (!mote_.is_down()) return;
  mote_.reboot();
  mote_.medium().set_receiver_enabled(mote_.id(), true);
  routing_.reboot();
  if (directory_) directory_->reboot();
  if (transport_) transport_->reboot();
  groups_.reboot();
  if (config_.enable_duty_cycle) {
    duty_cycle_ = std::make_unique<DutyCycleController>(mote_, groups_,
                                                        config_.duty_cycle);
  }
}

MiddlewareStack::UserConsumers& MiddlewareStack::user_consumers() {
  if (user_consumers_) return *user_consumers_;
  user_consumers_ = std::make_unique<UserConsumers>();
  routing_.on_delivery(
      radio::MsgType::kUser, [this](const net::RouteEnvelope& envelope) {
        const auto* payload =
            static_cast<const UserMessagePayload*>(envelope.inner.get());
        for (auto& handler : user_consumers_->handlers) {
          handler(*payload, envelope.origin);
        }
        for (auto& object : user_consumers_->static_objects) {
          object->deliver(*payload, envelope.origin);
        }
      });
  return *user_consumers_;
}

void MiddlewareStack::on_user_message(UserHandler handler) {
  user_consumers().handlers.push_back(std::move(handler));
}

StaticObject& MiddlewareStack::add_static_object(StaticObjectSpec spec) {
  auto& objects = user_consumers().static_objects;
  objects.push_back(
      std::make_unique<StaticObject>(mote_, &routing_, std::move(spec)));
  return *objects.back();
}

}  // namespace et::core
