#include "metrics/invariants.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace et::metrics {

namespace {

constexpr const char* kComponent = "invariants";

/// Leadership scan period.
constexpr Duration kCheckPeriod = Duration::millis(100);
/// Epoch-monotonicity checks stay suspended for this long after a
/// partition heals (stale-epoch takeovers during convergence are the
/// fence's job to clean up, not a bug).
constexpr Duration kHealSettle = Duration::seconds(2);
/// A lower-epoch election within this window of the label's high-water
/// epoch being raised (or re-contested at the same epoch) is concurrent
/// takeover churn, not a regression: under heartbeat loss two members
/// time out together with different epoch knowledge, both elect, and the
/// duel resolves them. Covers a receive timeout (2.1 x heartbeat) plus a
/// couple of loss bursts. A *stale-incarnation resurrection* — the real
/// bug — elects long after the winning side moved on, well outside this.
constexpr Duration kEpochChurnWindow = Duration::seconds(3);

/// A traced event's line in a violation's trace.
std::string trace_line(const core::GroupEvent& event) {
  return event.to_string();
}

std::string trace_line(const core::TransportEvent& event) {
  std::string line = event.time.to_string();
  line += " node ";
  line += std::to_string(event.node.value());
  line += " mtp-";
  line += core::transport_event_kind_name(event.kind);
  line += " label ";
  line += event.dst_label.to_string();
  line += " seq ";
  line += std::to_string(event.seq);
  return line;
}

}  // namespace

const char* invariant_kind_name(InvariantViolation::Kind kind) {
  switch (kind) {
    case InvariantViolation::Kind::kDualLeader:
      return "dual-leader";
    case InvariantViolation::Kind::kEpochRegression:
      return "epoch-regression";
    case InvariantViolation::Kind::kDuplicateDelivery:
      return "duplicate-delivery";
    case InvariantViolation::Kind::kRetryBudgetExceeded:
      return "retry-budget-exceeded";
  }
  return "?";
}

std::string InvariantViolation::to_string() const {
  std::string s = time.to_string();
  s += " INVARIANT ";
  s += invariant_kind_name(kind);
  s += " label ";
  s += label.to_string();
  s += ": ";
  s += detail;
  return s;
}

InvariantOracle::InvariantOracle(core::EnviroTrackSystem& system,
                                 InvariantConfig config)
    : system_(system), config_(config) {
  system_.add_group_observer(this);
  system_.add_transport_observer(this);
  scan_timer_ = system_.sim().schedule_periodic(
      kCheckPeriod, kCheckPeriod, [this] { scan_leaders(); });
}

void InvariantOracle::push_trace(const TracedEvent& event) {
  trace_[traced_++ % kTraceDepth] = event;
}

void InvariantOracle::record(InvariantViolation::Kind kind,
                             core::TypeIndex type, LabelId label,
                             std::string detail) {
  InvariantViolation violation;
  violation.kind = kind;
  violation.time = system_.sim().now();
  violation.type_index = type;
  violation.label = label;
  violation.detail = std::move(detail);
  const std::uint64_t depth = std::min<std::uint64_t>(traced_, kTraceDepth);
  violation.trace.reserve(depth);
  for (std::uint64_t n = traced_ - depth; n < traced_; ++n) {
    violation.trace.push_back(std::visit(
        [](const auto& event) { return trace_line(event); },
        trace_[n % kTraceDepth]));
  }
  ET_WARN(kComponent, "%s", violation.to_string().c_str());
  violations_.push_back(std::move(violation));
}

void InvariantOracle::on_group_event(const core::GroupEvent& event) {
  push_trace(event);

  if (event.kind != core::GroupEvent::Kind::kBecameLeader) return;
  const std::uint64_t label = event.label.value();
  const Time now = system_.sim().now();
  auto [it, first] =
      max_epoch_.try_emplace(label, EpochWatermark{event.epoch, now});
  if (first) return;
  if (event.epoch < it->second.epoch) {
    // A lower-epoch election is legal while the label's leadership is
    // genuinely in flux: during a split (each side runs its own epoch
    // line), while the fence converges after a heal, while the electing
    // node is radio-isolated (it cannot have heard the newer incarnation),
    // and inside the churn window of the last high-water contest (two
    // members timing out together under heartbeat loss elect with
    // different epoch knowledge; the duel resolves them). Only a stale
    // election on a settled, connected network is a regression.
    const bool settling =
        system_.medium().partitioned() ||
        (heal_seen_ && now - last_heal_ < kHealSettle) ||
        system_.medium().node_blackout(event.node) ||
        now - it->second.contested_at < kEpochChurnWindow;
    if (!settling) {
      std::string detail = "node ";
      detail += std::to_string(event.node.value());
      detail += " assumed leadership at epoch ";
      detail += std::to_string(event.epoch);
      detail += " below the label's high-water epoch ";
      detail += std::to_string(it->second.epoch);
      record(InvariantViolation::Kind::kEpochRegression, event.type_index,
             event.label, std::move(detail));
    }
  } else {
    // Raised or re-contested at the high water: re-anchor the churn
    // window — concurrent takeovers cluster around these moments.
    it->second.epoch = event.epoch;
    it->second.contested_at = now;
  }
}

void InvariantOracle::on_transport_event(const core::TransportEvent& event) {
  const NodeId node = event.node;
  push_trace(event);

  switch (event.kind) {
    case core::TransportEvent::Kind::kDelivered: {
      const std::array<std::uint64_t, 4> key{
          node.value(), event.origin.value(), event.dst_label.value(),
          event.seq};
      // Fire-and-forget sends all carry seq 0 and make no uniqueness
      // promise; only reliable transfers (nonzero seq) are checked.
      if (event.seq == 0) break;
      if (!delivered_.insert(key).second) {
        std::string detail = "node ";
        detail += std::to_string(node.value());
        detail += " dispatched transfer (origin ";
        detail += std::to_string(event.origin.value());
        detail += ", seq ";
        detail += std::to_string(event.seq);
        detail += ") twice";
        record(InvariantViolation::Kind::kDuplicateDelivery, 0,
               event.dst_label, std::move(detail));
      }
      break;
    }
    case core::TransportEvent::Kind::kRetransmit: {
      const int budget = core::Transport::kMaxRetries;
      if (event.attempt > budget) {
        std::string detail = "transfer seq ";
        detail += std::to_string(event.seq);
        detail += " retransmitted ";
        detail += std::to_string(event.attempt);
        detail += " times against a budget of ";
        detail += std::to_string(budget);
        record(InvariantViolation::Kind::kRetryBudgetExceeded, 0,
               event.dst_label, std::move(detail));
      }
      break;
    }
    default:
      break;
  }
}

void InvariantOracle::scan_leaders() {
  checks_run_++;
  radio::Medium& medium = system_.medium();
  const Time now = system_.sim().now();

  const bool parted = medium.partitioned();
  if (was_partitioned_ && !parted) {
    heal_seen_ = true;
    last_heal_ = now;
  }
  was_partitioned_ = parted;

  // All current leaders, grouped by (type, label).
  std::map<std::pair<core::TypeIndex, std::uint64_t>,
           std::vector<NodeId>>
      leaders;
  for (std::size_t t = 0; t < system_.specs().size(); ++t) {
    const auto type = static_cast<core::TypeIndex>(t);
    for (const NodeId node : system_.leaders(type)) {
      const LabelId label = system_.stack(node).groups().current_label(type);
      leaders[{type, label.value()}].push_back(node);
    }
  }

  std::set<std::pair<core::TypeIndex, std::uint64_t>> dual_now;
  for (const auto& [key, nodes] : leaders) {
    if (nodes.size() < 2) continue;
    // Leaders isolated from each other are expected; only mutually
    // reachable ones must converge. Isolation means a partition boundary
    // or a radio blackout on either side — a blacked-out leader cannot
    // hear its rival's heartbeats any more than a partitioned one can, so
    // its overlap clock starts when the RF outage ends, not before.
    bool overlap = false;
    for (std::size_t a = 0; a < nodes.size() && !overlap; ++a) {
      if (medium.node_blackout(nodes[a])) continue;
      for (std::size_t b = a + 1; b < nodes.size(); ++b) {
        if (medium.node_blackout(nodes[b])) continue;
        if (medium.same_partition(nodes[a], nodes[b])) {
          overlap = true;
          break;
        }
      }
    }
    if (!overlap) continue;
    dual_now.insert(key);
    auto [it, first] = dual_since_.try_emplace(key, now);
    if (!first && now - it->second >= config_.leader_overlap_grace) {
      std::string detail = "nodes";
      for (NodeId node : nodes) {
        detail += ' ';
        detail += std::to_string(node.value());
        detail += "(epoch ";
        detail +=
            std::to_string(system_.stack(node).groups().current_epoch(
                key.first));
        detail += ", comp ";
        detail += std::to_string(medium.partition_component(node));
        detail += ')';
      }
      detail += " co-led past the grace window";
      record(InvariantViolation::Kind::kDualLeader, key.first,
             LabelId{key.second}, std::move(detail));
      it->second = now;  // re-arm: flag again only after another full window
    }
  }
  // Labels that converged reset their overlap clock.
  for (auto it = dual_since_.begin(); it != dual_since_.end();) {
    if (dual_now.count(it->first) == 0) {
      it = dual_since_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string InvariantOracle::report() const {
  if (violations_.empty()) {
    return "invariant oracle: all invariants held (" +
           std::to_string(checks_run_) + " scans)";
  }
  std::string out = "invariant oracle: ";
  out += std::to_string(violations_.size());
  out += " violation(s)\n";
  for (const InvariantViolation& violation : violations_) {
    out += violation.to_string();
    out += '\n';
    for (const std::string& line : violation.trace) {
      out += "    | ";
      out += line;
      out += '\n';
    }
  }
  return out;
}

}  // namespace et::metrics
