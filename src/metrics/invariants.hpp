#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/system.hpp"
#include "core/transport.hpp"

/// Runtime protocol-invariant oracle.
///
/// Watches a running deployment (group events, transport events, periodic
/// role scans) and checks the safety properties the protocol is supposed to
/// provide, so chaos runs fail loudly at the moment an invariant breaks
/// instead of producing silently-wrong metrics:
///
///   1. At most one leader per context label per partition component —
///      transient dual leadership is legal while the id tiebreak / epoch
///      fence converges, so overlap only counts after a grace window.
///   2. Leadership-epoch monotonicity: nobody assumes leadership of a label
///      at an epoch below one the label was already led at (checked only
///      while the network is whole and the label's leadership is settled;
///      during a partition each side may legitimately run at its own
///      epoch, a radio-isolated elector cannot know better, and concurrent
///      takeovers under heartbeat loss spread differing epoch knowledge —
///      so checks resume one grace window after the last heal and one
///      churn window after the last high-water contest).
///   3. No duplicate delivery: the reliable transport never dispatches the
///      same (origin, label, seq) invocation twice on one node.
///   4. Bounded retransmission: no transfer is retransmitted more often
///      than the transport's retry budget (core::Transport::kMaxRetries).
///
/// Every violation captures a minimal trace — the most recent protocol
/// events — so a failing chaos run points at the offending interleaving.
/// The oracle keeps those events raw and formats them only when it records
/// a violation, so an event that breaks nothing costs no string.
namespace et::metrics {

struct InvariantConfig {
  /// Same-label leaders may coexist (takeover races, heal convergence) for
  /// up to this long before overlap is a violation. ~4 heartbeat periods.
  Duration leader_overlap_grace = Duration::seconds(2);
};

struct InvariantViolation {
  enum class Kind {
    kDualLeader,
    kEpochRegression,
    kDuplicateDelivery,
    kRetryBudgetExceeded,
  };

  Kind kind;
  Time time;
  core::TypeIndex type_index = 0;
  LabelId label;
  std::string detail;
  /// The most recent protocol events leading up to the violation.
  std::vector<std::string> trace;

  std::string to_string() const;
};

const char* invariant_kind_name(InvariantViolation::Kind kind);

class InvariantOracle final : public core::GroupObserver,
                              public core::TransportObserver {
 public:
  /// Attaches to a *started* system: subscribes to its group and transport
  /// events and arms the periodic leadership scan.
  InvariantOracle(core::EnviroTrackSystem& system, InvariantConfig config = {});

  InvariantOracle(const InvariantOracle&) = delete;
  InvariantOracle& operator=(const InvariantOracle&) = delete;

  void on_group_event(const core::GroupEvent& event) override;
  void on_transport_event(const core::TransportEvent& event) override;

  bool ok() const { return violations_.empty(); }
  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  std::uint64_t checks_run() const { return checks_run_; }

  /// Human-readable summary of every violation with its trace; "all
  /// invariants held" when clean.
  std::string report() const;

 private:
  /// Protocol events retained for violation traces.
  static constexpr std::size_t kTraceDepth = 16;
  using TracedEvent = std::variant<core::GroupEvent, core::TransportEvent>;

  void scan_leaders();
  void record(InvariantViolation::Kind kind, core::TypeIndex type,
              LabelId label, std::string detail);
  void push_trace(const TracedEvent& event);

  core::EnviroTrackSystem& system_;
  InvariantConfig config_;
  sim::EventHandle scan_timer_;

  /// (type, label) pairs currently in dual leadership, with overlap start.
  std::map<std::pair<core::TypeIndex, std::uint64_t>, Time> dual_since_;
  /// Highest epoch each label has been led at (invariant 2), and when that
  /// high water was last raised or re-contested (the churn window anchor).
  struct EpochWatermark {
    std::uint64_t epoch = 0;
    Time contested_at;
  };
  std::map<std::uint64_t, EpochWatermark> max_epoch_;
  /// Exact (receiver, origin, label, seq) tuples delivered (invariant 3).
  std::set<std::array<std::uint64_t, 4>> delivered_;
  /// Most recent heal; epoch checks resume kHealSettle later.
  Time last_heal_;
  bool heal_seen_ = false;
  bool was_partitioned_ = false;

  /// The last kTraceDepth events: event n sits at `trace_[n % kTraceDepth]`.
  std::array<TracedEvent, kTraceDepth> trace_;
  /// Events traced so far.
  std::uint64_t traced_ = 0;
  std::vector<InvariantViolation> violations_;
  std::uint64_t checks_run_ = 0;
};

}  // namespace et::metrics
