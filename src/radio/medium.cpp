#include "radio/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "util/log.hpp"

namespace et::radio {

namespace {
constexpr const char* kComponent = "radio";
}

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kReport:
      return "report";
    case MsgType::kRelinquish:
      return "relinquish";
    case MsgType::kDirUpdate:
      return "dir-update";
    case MsgType::kDirQuery:
      return "dir-query";
    case MsgType::kDirReply:
      return "dir-reply";
    case MsgType::kDirFence:
      return "dir-fence";
    case MsgType::kMtpData:
      return "mtp-data";
    case MsgType::kMtpAck:
      return "mtp-ack";
    case MsgType::kRoute:
      return "route";
    case MsgType::kRouteAck:
      return "route-ack";
    case MsgType::kCrossTraffic:
      return "cross-traffic";
    case MsgType::kUser:
      return "user";
  }
  return "?";
}

Medium::Medium(sim::Simulator& sim, RadioConfig config)
    : sim_(sim),
      config_(config),
      rng_(sim.make_rng("radio-medium")),
      rx_latency_(min_airtime() * kRxHandoffAirtimes),
      tx_handoff_(min_airtime() * kMacHandoffAirtimes) {
  assert(config_.comm_radius > 0.0);
  assert(config_.bitrate_bps > 0.0);
  assert(rx_latency_.is_positive());
}

Duration Medium::min_airtime() const {
  return Duration::seconds(static_cast<double>(kHeaderBytes) * 8.0 /
                           config_.bitrate_bps);
}

void Medium::set_receiver_sims(
    std::function<sim::Simulator&(NodeId)> sim_of) {
  sim_of_ = std::move(sim_of);
}

std::int32_t Medium::cell_coord(double v) const {
  return static_cast<std::int32_t>(std::floor(v / config_.comm_radius));
}

template <typename Fn>
void Medium::for_each_nearby(Vec2 center, Fn&& fn) const {
  const std::int32_t cx = cell_coord(center.x);
  const std::int32_t cy = cell_coord(center.y);
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const auto it = grid_.find(cell_key(cx + dx, cy + dy));
      if (it == grid_.end()) continue;
      for (std::uint32_t idx : it->second) fn(idx);
    }
  }
}

void Medium::gather_in_radius(Vec2 center, double radius,
                              std::uint64_t exclude,
                              std::vector<std::uint32_t>& out) const {
  out.clear();
  // Resolve the 3x3 cell block once, so the candidate count is known before
  // the scan and `out` grows in a single reserve instead of doubling
  // through push_back.
  const std::int32_t cx = cell_coord(center.x);
  const std::int32_t cy = cell_coord(center.y);
  const std::vector<std::uint32_t>* cells[9];
  int n_cells = 0;
  std::size_t candidates = 0;
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const auto it = grid_.find(cell_key(cx + dx, cy + dy));
      if (it == grid_.end()) continue;
      cells[n_cells++] = &it->second;
      candidates += it->second.size();
    }
  }
  out.reserve(candidates);
  for (int c = 0; c < n_cells; ++c) {
    for (std::uint32_t idx : *cells[c]) {
      if (idx == exclude) continue;
      if (within_radius(center, endpoints_[idx].pos, radius)) {
        out.push_back(idx);
      }
    }
  }
  // Ascending id order keeps delivery — and therefore the reception keys
  // assigned per candidate — bit-identical with the brute-force scan.
  std::sort(out.begin(), out.end());
}

void Medium::attach(NodeId id, Vec2 position) {
  assert(id.value() == endpoints_.size() &&
         "nodes must be attached densely in id order");
  endpoints_.emplace_back().pos = position;
  grid_[cell_key(cell_coord(position.x), cell_coord(position.y))].push_back(
      static_cast<std::uint32_t>(id.value()));
}

Medium::ActiveEndpoint& Medium::activate(NodeId id) {
  Endpoint& ep = endpoints_[id.value()];
  if (!ep.active) {
    ep.active = std::make_unique<ActiveEndpoint>(
        sim_.make_rng("radio-rx-" + std::to_string(id.value())));
  }
  return *ep.active;
}

Duration Medium::airtime_of(const Frame& frame) const {
  const std::size_t bytes =
      kHeaderBytes + (frame.payload ? frame.payload->size_bytes() : 0);
  return Duration::seconds(static_cast<double>(bytes) * 8.0 /
                           config_.bitrate_bps);
}

void Medium::send(Frame frame) {
  assert(frame.src.value() < endpoints_.size());
  assert(frame.payload != nullptr);
  // Mote context may be running on a tile thread; hand the whole MAC entry
  // (stats included) over as a channel op so all medium state stays
  // master-confined and ops replay in canonical issue order. The op is
  // keyed tx_handoff() after the send — the MAC-entry latency — and flagged
  // as a send so the window planner can track it as a pending transmission
  // source.
  sim_.post_radio_op(tx_handoff_, [this, frame = std::move(frame)]() mutable {
    send_now(std::move(frame));
  });
}

void Medium::send_now(Frame frame) {
  const NodeId src = frame.src;
  Endpoint& ep = endpoints_[src.value()];
  stats_.of(frame.type).offered++;
  if (ep.blackout) {
    // The RF front-end is out; the MAC accepts the frame and it goes
    // nowhere, exactly like a backoff-exhausted drop.
    stats_.of(frame.type).mac_dropped++;
    return;
  }
  if (ep.queue.size() >= config_.tx_queue_capacity) {
    stats_.of(frame.type).mac_dropped++;
    ET_DEBUG(kComponent, "node %llu tx queue overflow, dropping %s",
             static_cast<unsigned long long>(src.value()),
             msg_type_name(frame.type));
    return;
  }
  ep.queue.push_back(std::move(frame));
  try_send(src);
}

bool Medium::channel_busy_at(NodeId id) const {
  const Vec2 pos = endpoints_[id.value()].pos;
  const Time now = sim_.now();
  // The index path scans only frames still on the air; the reference path
  // scans the full history. Both apply the same predicate, so a completed
  // transmission whose end-event has not fired yet (end == now) is excluded
  // either way and the verdicts agree exactly.
  const std::vector<Transmission>& haystack =
      config_.use_spatial_index ? active_ : history_;
  for (const Transmission& tx : haystack) {
    if (tx.end > now && tx.start <= now &&
        (tx.src == id ||
         (same_partition(tx.src, id) && audible_at(pos, tx.pos)))) {
      return true;
    }
  }
  return false;
}

std::vector<NodeId> Medium::neighbors(NodeId id) const {
  std::vector<NodeId> out;
  const Vec2 pos = endpoints_[id.value()].pos;
  if (config_.use_spatial_index) {
    // Thread-local scratch: motes on different tiles of the parallel
    // kernel query neighbours concurrently (grid/positions are immutable
    // after setup, so the reads themselves are safe).
    thread_local std::vector<std::uint32_t> scratch;
    gather_in_radius(pos, config_.comm_radius, id.value(), scratch);
    out.reserve(scratch.size());
    for (std::uint32_t idx : scratch) out.push_back(NodeId{idx});
    return out;
  }
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (i == id.value()) continue;
    if (audible_at(endpoints_[i].pos, pos)) out.push_back(NodeId{i});
  }
  return out;
}

void Medium::try_send(NodeId id) {
  Endpoint& ep = endpoints_[id.value()];
  if (ep.transmitting || ep.backoff_pending || ep.queue.empty()) return;

  const bool sensed_busy =
      channel_busy_at(id) && !rng_.chance(config_.carrier_sense_miss);
  if (sensed_busy) {
    // Carrier sensed busy: exponential backoff, no retransmission after the
    // attempt limit (frame silently dropped, as on the real MAC).
    ep.backoff_attempts++;
    if (ep.backoff_attempts > config_.max_backoff_attempts) {
      Frame dropped = std::move(ep.queue.front());
      ep.queue.pop_front();
      ep.backoff_attempts = 0;
      stats_.of(dropped.type).mac_dropped++;
      ET_DEBUG(kComponent, "node %llu backoff exhausted, dropping %s",
               static_cast<unsigned long long>(id.value()),
               msg_type_name(dropped.type));
      // Try the next queued frame, if any.
      if (!ep.queue.empty()) try_send(id);
      return;
    }
    const int window = 1 << std::min(ep.backoff_attempts, 5);
    const double slots = rng_.uniform(1.0, static_cast<double>(window));
    ep.backoff_pending = true;
    const Duration delay = config_.backoff_slot * slots;
    note_mac_wakeup(sim_.now() + delay, id);
    sim_.schedule_owned(sim::kChannelRank, delay, [this, id] {
      clear_mac_wakeup(id);
      endpoints_[id.value()].backoff_pending = false;
      try_send(id);
    });
    return;
  }

  begin_transmission(id);
}

void Medium::begin_transmission(NodeId id) {
  Endpoint& ep = endpoints_[id.value()];
  ActiveEndpoint& active = activate(id);
  assert(!ep.queue.empty());
  Frame frame = std::move(ep.queue.front());
  ep.queue.pop_front();
  ep.backoff_attempts = 0;
  ep.transmitting = true;

  const Duration airtime = airtime_of(frame);
  const Time start = sim_.now();
  const Time end = start + airtime;
  const std::uint64_t tx_id = next_tx_id_++;
  if (airtime > max_airtime_) max_airtime_ = airtime;
  active_.push_back(Transmission{tx_id, id, ep.pos, start, end});
  history_.push_back(Transmission{tx_id, id, ep.pos, start, end});

  const std::size_t bytes = kHeaderBytes + frame.payload->size_bytes();
  stats_.bits_sent += bytes * 8;
  stats_.airtime += airtime;
  stats_.of(frame.type).transmitted++;
  active.stats.frames_sent++;
  active.stats.bits_sent += bytes * 8;

  active.in_flight = std::move(frame);
  sim_.schedule_owned(sim::kChannelRank, airtime, [this, id, start, end, tx_id] {
    complete_transmission(id, start, end, tx_id);
  });
}

void Medium::complete_transmission(NodeId id, Time start, Time end,
                                   std::uint64_t tx_id) {
  Endpoint& ep = endpoints_[id.value()];
  std::optional<Frame>& in_flight = ep.active->in_flight;
  assert(in_flight.has_value());
  const Frame frame = std::move(*in_flight);
  in_flight.reset();
  ep.transmitting = false;
  std::erase_if(active_,
                [tx_id](const Transmission& tx) { return tx.tx_id == tx_id; });
  deliver(frame, start, end, tx_id);
  prune_history();
  // Move on to the next queued frame after a short turnaround gap so two
  // frames from the same node cannot overlap.
  if (!ep.queue.empty()) {
    note_mac_wakeup(sim_.now() + Duration::micros(100), id);
    sim_.schedule_owned(sim::kChannelRank, Duration::micros(100), [this, id] {
      clear_mac_wakeup(id);
      try_send(id);
    });
  }
}

bool Medium::corrupted_at(NodeId receiver, Time start, Time end,
                          std::uint64_t tx_id) const {
  const Vec2 pos = endpoints_[receiver.value()].pos;
  for (const Transmission& tx : history_) {
    if (tx.tx_id == tx_id) continue;
    const bool overlaps = tx.start < end && tx.end > start;
    if (!overlaps) continue;
    // Half-duplex: the receiver's own transmission always interferes.
    // Transmissions from other partition components do not (RF isolation).
    if (tx.src == receiver ||
        (same_partition(tx.src, receiver) && audible_at(pos, tx.pos))) {
      return true;
    }
  }
  return false;
}

bool Medium::sample_burst_state(ActiveEndpoint& ep) {
  // Exact transition of the two-state CTMC over the (arbitrarily long)
  // interval since the chain was last sampled: with G->B rate a = 1/mean_good
  // and B->G rate b = 1/mean_bad,
  //   P(bad at t+dt | bad at t)  = pi_bad + (1 - pi_bad) * e^{-(a+b) dt}
  //   P(bad at t+dt | good at t) = pi_bad * (1 - e^{-(a+b) dt})
  // where pi_bad = a / (a + b) is the stationary burst fraction. Sampling
  // only at delivery attempts is exact because the chain is memoryless.
  const double a = 1.0 / config_.burst_loss.mean_good.to_seconds();
  const double b = 1.0 / config_.burst_loss.mean_bad.to_seconds();
  const double rate = a + b;
  const double pi_bad = a / rate;
  const double dt = (sim_.now() - ep.burst_sampled_at).to_seconds();
  const double decay = std::exp(-rate * dt);
  const double p_bad =
      ep.burst_bad ? pi_bad + (1.0 - pi_bad) * decay : pi_bad * (1.0 - decay);
  ep.burst_bad = ep.rx_rng.chance(p_bad);
  ep.burst_sampled_at = sim_.now();
  return ep.burst_bad;
}

void Medium::attempt_delivery(std::uint32_t k,
                              const std::vector<std::uint32_t>& candidates,
                              const Frame& frame, Time start, Time end,
                              std::uint64_t tx_id, Time handoff,
                              std::uint64_t seq_base, ScatterStats& acc) {
  const NodeId receiver{candidates[k]};
  Endpoint& rx = endpoints_[receiver.value()];
  if (!rx.receiver_enabled || rx.blackout) return;
  if (!same_partition(frame.src, receiver)) {
    // Checked before any RNG draw so partitioned and unpartitioned code
    // paths consume the stream identically for the surviving receivers.
    acc.blocked_partition++;
    return;
  }
  acc.attempts++;
  ActiveEndpoint& active = activate(receiver);
  if (config_.model_collisions && corrupted_at(receiver, start, end, tx_id)) {
    acc.lost_collision++;
    return;
  }
  if (config_.burst_loss.enabled) {
    const bool bad = sample_burst_state(active);
    const double p =
        bad ? config_.burst_loss.loss_bad : config_.burst_loss.loss_good;
    if (active.rx_rng.chance(p)) {
      if (bad) {
        acc.lost_burst++;
      } else {
        acc.lost_random++;
      }
      return;
    }
  } else if (active.rx_rng.chance(config_.loss_probability)) {
    acc.lost_random++;
    return;
  }
  acc.delivered++;
  active.stats.frames_received++;
  active.stats.bits_received +=
      (kHeaderBytes + frame.payload->size_bytes()) * 8;
  // Hand the frame to the receiver's simulator rx_latency() after
  // completion at the key pre-assigned to this candidate slot. The latency
  // is what lets tiles run a whole lookahead window without hearing from
  // the channel; the serial kernel applies the same latency, so the two
  // engines stay bit-exact.
  sim::Simulator& rx_sim = sim_of_ ? sim_of_(receiver) : sim_;
  rx_sim.schedule_at_key(
      sim::EventKey{handoff, sim::kChannelRank, seq_base + k},
      static_cast<std::uint32_t>(receiver.value()),
      [this, receiver, frame] {
        if (receiver_) receiver_(receiver, frame);
      });
}

void Medium::deliver(const Frame& frame, Time start, Time end,
                     std::uint64_t tx_id) {
  TypeStats& ts = stats_.of(frame.type);

  // Candidate receivers in ascending id order — the same set for both
  // geometry paths.
  std::vector<std::uint32_t>& candidates = deliver_scratch_;
  const double reach =
      frame.range_limit ? std::min(*frame.range_limit, config_.comm_radius)
                        : config_.comm_radius;
  const Vec2 src_pos = endpoints_[frame.src.value()].pos;
  if (frame.is_broadcast()) {
    if (config_.use_spatial_index) {
      // reach <= comm_radius, so the 3x3 cell block covers every receiver;
      // gather_in_radius yields them in ascending id order, matching the
      // brute-force scan below frame for frame.
      gather_in_radius(src_pos, reach, frame.src.value(), candidates);
    } else {
      candidates.clear();
      for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        if (i == frame.src.value()) continue;
        if (within_radius(src_pos, endpoints_[i].pos, reach)) {
          candidates.push_back(static_cast<std::uint32_t>(i));
        }
      }
    }
  } else {
    candidates.clear();
    const NodeId dst = *frame.dst;
    if (dst.value() < endpoints_.size() &&
        within_radius(src_pos, endpoints_[dst.value()].pos, reach)) {
      candidates.push_back(static_cast<std::uint32_t>(dst.value()));
    }
  }

  // One pre-assigned reception key and one private RNG stream per
  // candidate, so every receiver's outcome is independent of the order
  // receivers are sampled in. The serial loop and the sharded fan-out below
  // therefore produce the same simulation, bit for bit — parallelism never
  // rides on the sampling order.
  const std::uint64_t seq_base =
      sim_.alloc_seq_block(sim::kChannelRank, candidates.size());
  const Time handoff = end + rx_latency_;
  ScatterStats totals;
  if (fanout_exec_ && candidates.size() >= config_.fanout_min_receivers) {
    // Shard by receiving simulator (tile): groups touch disjoint endpoint
    // state and tile queues, so the kernel may run them concurrently.
    fanout_group_sims_.clear();
    for (auto& group : fanout_groups_) group.clear();
    for (std::uint32_t k = 0;
         k < static_cast<std::uint32_t>(candidates.size()); ++k) {
      sim::Simulator* tile = &sim_of_(NodeId{candidates[k]});
      std::size_t g = 0;
      while (g < fanout_group_sims_.size() && fanout_group_sims_[g] != tile)
        ++g;
      if (g == fanout_group_sims_.size()) {
        fanout_group_sims_.push_back(tile);
        if (fanout_groups_.size() < fanout_group_sims_.size())
          fanout_groups_.emplace_back();
      }
      fanout_groups_[g].push_back(k);
    }
    const std::size_t n_groups = fanout_group_sims_.size();
    fanout_stats_.assign(n_groups, ScatterStats{});
    fanout_exec_(n_groups, candidates.size(), [&](std::size_t g) {
      for (std::uint32_t k : fanout_groups_[g]) {
        attempt_delivery(k, candidates, frame, start, end, tx_id, handoff,
                         seq_base, fanout_stats_[g]);
      }
    });
    for (const ScatterStats& s : fanout_stats_) {
      totals.attempts += s.attempts;
      totals.delivered += s.delivered;
      totals.lost_collision += s.lost_collision;
      totals.lost_random += s.lost_random;
      totals.lost_burst += s.lost_burst;
      totals.blocked_partition += s.blocked_partition;
    }
  } else {
    for (std::uint32_t k = 0;
         k < static_cast<std::uint32_t>(candidates.size()); ++k) {
      attempt_delivery(k, candidates, frame, start, end, tx_id, handoff,
                       seq_base, totals);
    }
  }
  ts.pair_attempts += totals.attempts;
  ts.pair_delivered += totals.delivered;
  ts.pair_lost_collision += totals.lost_collision;
  ts.pair_lost_random += totals.lost_random;
  ts.pair_lost_burst += totals.lost_burst;
  ts.pair_blocked_partition += totals.blocked_partition;
  if (totals.delivered == 0) ts.lost++;
}

void Medium::note_mac_wakeup(Time at, NodeId id) {
  mac_wakeups_.emplace_back(at, static_cast<std::uint32_t>(id.value()));
}

void Medium::clear_mac_wakeup(NodeId id) {
  const auto idx = static_cast<std::uint32_t>(id.value());
  for (auto& entry : mac_wakeups_) {
    if (entry.second == idx) {
      entry = mac_wakeups_.back();
      mac_wakeups_.pop_back();
      return;
    }
  }
  assert(false && "clearing a MAC wakeup that was never noted");
}

void Medium::collect_channel_constraints(
    std::vector<std::pair<Time, Vec2>>& out) const {
  // A transmission on the air completes (and can trigger receptions) no
  // earlier than tx.end. A pending MAC wakeup may start a new transmission
  // the instant it fires; that frame cannot complete before the wakeup
  // plus one minimum airtime.
  for (const Transmission& tx : active_) out.emplace_back(tx.end, tx.pos);
  const Duration airtime = min_airtime();
  for (const auto& [at, idx] : mac_wakeups_) {
    out.emplace_back(at + airtime, endpoints_[idx].pos);
  }
}

void Medium::set_partition(std::vector<std::uint32_t> component_of) {
  assert(component_of.empty() || component_of.size() == endpoints_.size());
  partition_of_ = std::move(component_of);
  partition_version_++;
}

void Medium::set_receiver_enabled(NodeId id, bool enabled) {
  // Duty cycling toggles from mote context; defer like any channel op.
  sim_.post_op([this, id, enabled] { set_receiver_enabled_now(id, enabled); });
}

void Medium::set_receiver_enabled_now(NodeId id, bool enabled) {
  Endpoint& ep = endpoints_[id.value()];
  if (ep.receiver_enabled == enabled) return;
  if (enabled) {
    activate(id).stats.radio_off += sim_.now() - ep.receiver_off_since;
  } else {
    ep.receiver_off_since = sim_.now();
  }
  ep.receiver_enabled = enabled;
}

void Medium::prune_history() {
  // Transmissions can only collide with others overlapping their airtime.
  // A future delivery's window [start, end] satisfies start >= now -
  // max_airtime_ (the longest frame ever transmitted — tracked, not a
  // hard-coded constant, so slow-bitrate configs cannot miss collisions),
  // and overlap requires tx.end > start; anything ending before the cutoff
  // is therefore unreachable by any future query.
  const Time cutoff = sim_.now() - max_airtime_;
  std::erase_if(history_,
                [cutoff](const Transmission& tx) { return tx.end < cutoff; });
}

}  // namespace et::radio
