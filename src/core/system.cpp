#include "core/system.hpp"

#include <cassert>
#include <utility>

namespace et::core {

EnviroTrackSystem::EnviroTrackSystem(sim::Simulator& sim,
                                     env::Environment& env,
                                     const env::Field& field,
                                     SystemConfig config)
    : sim_(sim),
      env_(env),
      field_(field),
      config_(config),
      kernel_(config.kernel.use_parallel_kernel
                  ? std::make_unique<sim::ParallelKernel>(sim, config.kernel,
                                                          field.bounds())
                  : nullptr),
      medium_(sim, config.radio),
      network_(sim, medium_, env, field, config.cpu,
               kernel_ ? node::MoteNetwork::SimSelector(
                             [this](NodeId, Vec2 pos) -> sim::Simulator& {
                               return kernel_->sim_for(pos.x, pos.y);
                             })
                       : node::MoteNetwork::SimSelector{}),
      aggregations_(AggregationRegistry::with_builtins()) {
  // One per-owner sequence table for every engine of the run (every mote,
  // the channel, the world), presized so no engine grows it later.
  auto seqs = std::make_shared<sim::Simulator::SeqTable>(network_.size() + 2,
                                                          0);
  if (!kernel_) {
    sim_.share_seq_table(std::move(seqs));
    return;
  }
  for (sim::Simulator* engine : kernel_->all_sims()) {
    engine->share_seq_table(seqs);
  }
  medium_.set_receiver_sims([this](NodeId id) -> sim::Simulator& {
    return network_.mote(id).sim();
  });
  // The kernel's window plan mirrors the medium's handoff latencies.
  sim::WindowPlan plan;
  plan.min_airtime = medium_.min_airtime();
  plan.tx_handoff = medium_.tx_handoff();
  plan.rx_handoff = medium_.rx_latency();
  plan.hop_radius = config_.radio.comm_radius;
  plan.n_motes = static_cast<std::uint32_t>(network_.size());
  plan.collect_channel = [this](std::vector<std::pair<Time, Vec2>>& out) {
    medium_.collect_channel_constraints(out);
  };
  plan.pos_of = [this](std::uint32_t rank) {
    return medium_.position_of(NodeId{rank});
  };
  plan.prepare = [this](Time t) { env_.prepare(t); };
  kernel_->finalize(std::move(plan));
  medium_.set_fanout_executor(
      [this](std::size_t n_groups, std::size_t n_receivers,
             const std::function<void(std::size_t)>& body) {
        kernel_->run_fanout(n_groups, n_receivers, body);
      });
}

TypeIndex EnviroTrackSystem::add_context_type(ContextTypeSpec spec) {
  assert(!started_ && "context types must be declared before start()");
  specs_.push_back(std::move(spec));
  return static_cast<TypeIndex>(specs_.size() - 1);
}

void EnviroTrackSystem::start() {
  assert(!started_);
  started_ = true;
  group_types_ = resolve_group_types(specs_, senses_);
  stacks_.reserve(network_.size());
  for (std::size_t i = 0; i < network_.size(); ++i) {
    // Stack construction and start-up schedule per-mote timers (heartbeat
    // phases, duty cycles); attribute them to the mote so canonical keys
    // are engine-independent.
    sim::ExecutingOwnerScope scope(sim_, static_cast<std::uint32_t>(i));
    stacks_.push_back(std::make_unique<MiddlewareStack>(
        network_.mote(NodeId{i}), group_deployment_, field_.bounds(),
        config_.middleware));
  }
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    sim::ExecutingOwnerScope scope(sim_, static_cast<std::uint32_t>(i));
    stacks_[i]->start();
  }
}

std::size_t EnviroTrackSystem::run_until(Time deadline) {
  if (kernel_) return kernel_->run_until(deadline);
  const std::size_t fired = sim_.run_until(deadline);
  sim_.finish_run(deadline);
  return fired;
}

void EnviroTrackSystem::add_group_observer(GroupObserver* observer) {
  assert(started_);
  group_observers_.push_back(observer);
}

void EnviroTrackSystem::add_transport_observer(TransportObserver* observer) {
  assert(started_);
  transport_observers_.push_back(observer);
}

std::vector<NodeId> EnviroTrackSystem::leaders(TypeIndex type) const {
  std::vector<NodeId> out;
  if (type >= specs_.size()) return out;
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    if (stacks_[i]->groups().role(type) == Role::kLeader) {
      out.push_back(NodeId{i});
    }
  }
  return out;
}

void EnviroTrackSystem::crash_node(NodeId id) {
  // Crash/reboot arrive from world context (fault injector, tests); the
  // scope attributes the stack's scheduling and ops to the affected mote.
  sim::ExecutingOwnerScope scope(sim_, static_cast<std::uint32_t>(id.value()));
  stacks_[id.value()]->crash();
}

void EnviroTrackSystem::reboot_node(NodeId id) {
  sim::ExecutingOwnerScope scope(sim_, static_cast<std::uint32_t>(id.value()));
  stacks_[id.value()]->reboot();
}

}  // namespace et::core
