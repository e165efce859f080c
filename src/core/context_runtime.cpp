#include "core/context_runtime.hpp"

#include <cassert>

#include "core/app_messages.hpp"
#include "core/transport.hpp"
#include "util/log.hpp"

namespace et::core {

namespace {
constexpr const char* kComponent = "ctx-runtime";
}

ContextRuntime::ContextRuntime(node::Mote& mote,
                               const std::vector<ContextTypeSpec>& specs,
                               GroupManager& groups)
    : mote_(mote), specs_(&specs), groups_(groups) {}

const RuntimeStats& ContextRuntime::stats() const {
  static const RuntimeStats kNeverLed;
  return objects_ ? objects_->stats : kNeverLed;
}

void ContextRuntime::on_leader_start(TypeIndex type, LabelId label,
                                     const PersistentState& inherited) {
  (void)inherited;  // state rides in GroupManager; methods read it there
  if (!objects_) {
    objects_ = std::make_unique<Objects>();
    objects_->slots.resize(specs_->size());
  }
  const ContextTypeSpec& spec = (*specs_)[type];
  Active active;
  active.label = label;

  std::size_t method_index = 0;
  for (const ObjectSpec& object : spec.objects) {
    for (const MethodSpec& method : object.methods) {
      if (method.invocation.kind == InvocationSpec::Kind::kTimer) {
        const MethodSpec* m = &method;
        const Duration first = method.invocation.immediate
                                   ? Duration::millis(1)
                                   : method.invocation.period;
        active.timers.push_back(mote_.every(
            first, method.invocation.period, [this, type, label, m] {
              // Leadership may have moved between the timer post and now.
              const auto& slot = objects_->slots[type];
              if (!slot || slot->label != label) return;
              objects_->stats.timer_invocations++;
              run_method(type, label, *m, nullptr, NodeId{});
            }));
      }
      ++method_index;
    }
  }
  active.condition_state.assign(method_index, false);

  // Condition-invoked methods piggyback on the middleware tick cadence.
  const Duration tick = GroupManager::kSensePollPeriod;
  active.condition_tick = mote_.every(tick, tick, [this, type, label] {
    const auto& slot = objects_->slots[type];
    if (!slot || slot->label != label) return;
    evaluate_conditions(type);
  });

  objects_->slots[type] = std::move(active);
  ET_DEBUG(kComponent, "node %llu attaches objects of type %u (label %llu)",
           static_cast<unsigned long long>(mote_.id().value()), type,
           static_cast<unsigned long long>(label.value()));
}

void ContextRuntime::on_leader_stop(TypeIndex type, LabelId label) {
  (void)label;
  if (!active(type)) return;
  std::optional<Active>& slot = objects_->slots[type];
  for (auto& timer : slot->timers) timer.cancel();
  slot->condition_tick.cancel();
  slot.reset();
}

void ContextRuntime::evaluate_conditions(TypeIndex type) {
  const ContextTypeSpec& spec = (*specs_)[type];
  // A method body may detach this very context (e.g. by crashing the node,
  // as the minesweeper's detonation does), so re-validate the slot after
  // every invocation. The slot itself stays put: the table is sized once.
  std::optional<Active>& slot = objects_->slots[type];
  const LabelId label = slot->label;
  std::size_t method_index = 0;
  for (const ObjectSpec& object : spec.objects) {
    for (const MethodSpec& method : object.methods) {
      if (!slot || slot->label != label) return;
      if (method.invocation.kind == InvocationSpec::Kind::kCondition &&
          method.invocation.condition) {
        TrackingContext ctx(*this, type, label, nullptr, NodeId{});
        const bool now_true = method.invocation.condition(ctx);
        const bool was_true = slot->condition_state[method_index];
        slot->condition_state[method_index] = now_true;
        if (now_true && !was_true) {
          objects_->stats.condition_invocations++;
          run_method(type, label, method, nullptr, NodeId{});
        }
      }
      ++method_index;
    }
  }
}

void ContextRuntime::run_method(TypeIndex type, LabelId label,
                                const MethodSpec& method,
                                const std::vector<double>* args, NodeId src) {
  if (!method.body) return;
  TrackingContext ctx(*this, type, label, args, src);
  method.body(ctx);
}

void ContextRuntime::dispatch_port(TypeIndex type, LabelId label, PortId port,
                                   const std::vector<double>& args,
                                   NodeId src) {
  if (!active(type) || objects_->slots[type]->label != label) return;
  const MethodSpec* method =
      (*specs_)[type].method_at(static_cast<std::size_t>(port.value()));
  if (!method) return;
  objects_->stats.remote_invocations++;
  run_method(type, label, *method, &args, src);
}

void ContextRuntime::context_send_to_node(TypeIndex type, LabelId label,
                                          NodeId dst, std::string tag,
                                          std::vector<double> data) {
  if (!routing_) return;
  objects_->stats.reports_to_nodes++;
  auto payload = std::make_shared<UserMessagePayload>(
      std::move(tag), label, mote_.id(), std::move(data));
  payload->epoch = groups_.current_epoch(type);
  routing_->send(mote_.medium().position_of(dst), radio::MsgType::kUser,
                 std::move(payload), dst);
}

void ContextRuntime::context_invoke_remote(LabelId src_label,
                                           TypeIndex dst_type,
                                           LabelId dst_label, PortId port,
                                           std::vector<double> args) {
  if (!transport_) return;
  transport_->invoke(dst_type, dst_label, port, std::move(args), src_label);
}

// ---------------------------------------------------------------------------
// TrackingContext facade
// ---------------------------------------------------------------------------

std::string_view TrackingContext::type_name() const {
  return runtime_.spec(type_).name;
}

NodeId TrackingContext::node() const { return runtime_.mote().id(); }

Vec2 TrackingContext::node_position() const {
  return runtime_.mote().position();
}

Time TrackingContext::now() const { return runtime_.mote().now(); }

std::optional<AggregateValue> TrackingContext::read(
    std::string_view var) const {
  AggregateStateTable* table = runtime_.groups().aggregates(type_);
  if (!table) return std::nullopt;
  return table->read(var, now());
}

std::optional<double> TrackingContext::read_scalar(
    std::string_view var) const {
  auto value = read(var);
  if (!value || value->kind != AggregateValue::Kind::kScalar) {
    return std::nullopt;
  }
  return value->scalar;
}

std::optional<Vec2> TrackingContext::read_vector(std::string_view var) const {
  auto value = read(var);
  if (!value || value->kind != AggregateValue::Kind::kVector) {
    return std::nullopt;
  }
  return value->vector;
}

void TrackingContext::set_state(const std::string& key, double value) {
  runtime_.groups().persistent_state(type_)[key] = value;
}

std::optional<double> TrackingContext::get_state(std::string_view key) const {
  const PersistentState& state = runtime_.groups().persistent_state(type_);
  auto it = state.find(std::string(key));
  if (it == state.end()) return std::nullopt;
  return it->second;
}

void TrackingContext::send_to_node(NodeId dst, std::string tag,
                                   std::vector<double> data) {
  runtime_.context_send_to_node(type_, label_, dst, std::move(tag),
                                std::move(data));
}

void TrackingContext::invoke_remote(TypeIndex dst_type, LabelId dst_label,
                                    PortId port, std::vector<double> args) {
  runtime_.context_invoke_remote(label_, dst_type, dst_label, port,
                                 std::move(args));
}

}  // namespace et::core
