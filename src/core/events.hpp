#pragma once

#include <cstdint>
#include <string>

#include "core/context_type.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

/// Protocol lifecycle events: group-management events, published by every
/// GroupManager, and reliable-transport events, published by every
/// Transport.
///
/// The middleware itself does not need these; they exist for the metrics
/// layer (handover accounting — Fig. 4, recovery, the invariant oracle) and
/// for tests asserting protocol behaviour. EnviroTrackSystem delivers them
/// to the observers registered with it (see add_group_observer).
namespace et::core {

struct GroupEvent {
  enum class Kind {
    kLabelCreated,        // node minted a fresh context label (new leader)
    kBecameLeader,        // node assumed leadership of an existing label
    kLostLeadership,      // node stopped leading (yield or relinquish)
    kTakeover,            // leadership assumed after receive-timer expiry
    kRelinquish,          // leader announced it stopped sensing
    kYield,               // leader deferred to a peer leader of same label
    kLabelSuppressed,     // spurious label deleted on higher-weight evidence
    kJoined,              // node joined a group as member
    kLeft,                // member stopped sensing and left
    kFenced,              // stale leader stepped down on higher-epoch evidence
  };

  Kind kind;
  /// Beside `kind`, in its padding: the event is 56 B, so the op that
  /// journals it (the event and the observer list) fits inline in an event
  /// slot (GroupManager::emit).
  TypeIndex type_index = 0;
  Time time;
  NodeId node;        // the node the event happened on
  LabelId label;      // the label involved
  NodeId peer;        // other party (new leader, suppressor), when relevant
  std::uint64_t weight = 0;
  /// Leadership epoch in effect for the event (0 when not applicable).
  std::uint64_t epoch = 0;

  std::string to_string() const;
};

class GroupObserver {
 public:
  virtual ~GroupObserver() = default;
  virtual void on_group_event(const GroupEvent& event) = 0;
};

const char* group_event_kind_name(GroupEvent::Kind kind);

/// Reliability-layer lifecycle events, consumed by the invariant oracle
/// and tests. `origin` + `dst_label` + `seq` identify one transfer.
struct TransportEvent {
  enum class Kind {
    kSend,           // reliable transfer created at the origin
    kRetransmit,     // origin re-sent after an ack timeout
    kAcked,          // origin settled the transfer on an ack
    kDelivered,      // receiver dispatched the invocation
    kDuplicate,      // receiver suppressed an already-delivered transfer
    kFailed,         // origin gave up (retry budget exhausted)
    kResolveFailed,  // origin could not resolve the destination label
  };

  Kind kind;
  Time time;
  NodeId node;  // where the event happened
  LabelId dst_label;
  NodeId origin;
  std::uint32_t seq = 0;
  /// Retransmits performed so far on the transfer (0 on first send).
  int attempt = 0;
};

class TransportObserver {
 public:
  virtual ~TransportObserver() = default;
  virtual void on_transport_event(const TransportEvent& event) = 0;
};

const char* transport_event_kind_name(TransportEvent::Kind kind);

}  // namespace et::core
