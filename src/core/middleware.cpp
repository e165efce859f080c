#include "core/middleware.hpp"

namespace et::core {

MiddlewareStack::MiddlewareStack(
    node::Mote& mote, const std::vector<ContextTypeSpec>& specs,
    const std::vector<GroupTypeProfile>& group_types,
    const AggregationRegistry& aggregations, Rect field_bounds,
    const MiddlewareConfig& config)
    : mote_(mote),
      config_(config),
      routing_(mote, config.routing),
      groups_(mote, specs, group_types, aggregations, config.group),
      runtime_(mote, specs, groups_) {
  runtime_.set_routing(&routing_);

  if (config.enable_directory) {
    directory_ = std::make_unique<Directory>(mote, routing_, specs,
                                             field_bounds, config.directory);
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

void MiddlewareStack::ensure_user_consumer() {
  if (user_consumer_registered_) return;
  user_consumer_registered_ = true;
  routing_.on_delivery(
      radio::MsgType::kUser, [this](const net::RouteEnvelope& envelope) {
        const auto* payload =
            static_cast<const UserMessagePayload*>(envelope.inner.get());
        for (auto& handler : user_handlers_) {
          handler(*payload, envelope.origin);
        }
        for (auto& object : static_objects_) {
          object->deliver(*payload, envelope.origin);
        }
      });
}

void MiddlewareStack::on_user_message(UserHandler handler) {
  ensure_user_consumer();
  user_handlers_.push_back(std::move(handler));
}

StaticObject& MiddlewareStack::add_static_object(StaticObjectSpec spec) {
  ensure_user_consumer();
  static_objects_.push_back(
      std::make_unique<StaticObject>(mote_, &routing_, std::move(spec)));
  return *static_objects_.back();
}

}  // namespace et::core
