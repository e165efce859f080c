#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "util/inline_function.hpp"
#include "util/time.hpp"

/// The pending-event set of the discrete-event simulator.
///
/// Events are totally ordered by their canonical key (time, owner rank,
/// per-owner sequence) so that simultaneous events fire in a deterministic
/// order — essential for reproducible distributed-protocol runs. Ranks are
/// assigned per owner (mote id < channel < world) and sequence numbers per
/// owner (see Simulator), so the order is a pure function of the schedule
/// calls and stays reproducible when the parallel kernel (sim/parallel.hpp)
/// partitions events across per-tile queues. The queue itself only orders
/// the keys it is given.
///
/// Storage is allocation-light: callbacks live in a slab of pooled slots
/// (small closures inline, see util::InlineFunction) addressed by
/// {index, generation} handles; the heap orders plain POD entries.
/// Cancellation is O(1) — it releases the slot and bumps its generation, so
/// the stale heap entry and any stale handles are recognised and skipped.
namespace et::sim {

class EventQueue;

/// Owner rank of medium-internal events (backoff, completion, delivery) in
/// canonical order. Greater than any mote id, below world events.
inline constexpr std::uint32_t kChannelRank = 0xFFFFFFFEu;
/// Owner rank of world events (scenario drivers, fault injector, monitors).
inline constexpr std::uint32_t kWorldRank = 0xFFFFFFFFu;
/// Largest sequence number: {t, kWorldRank, kMaxSeq} bounds every key at t.
inline constexpr std::uint64_t kMaxSeq = ~std::uint64_t{0};

/// Canonical position of an event in the run's total order.
struct EventKey {
  Time time;
  std::uint32_t rank = 0;
  std::uint64_t seq = 0;
  friend constexpr auto operator<=>(const EventKey&, const EventKey&) =
      default;
};

namespace detail {
/// Control block shared between a periodic chain and its handle (the chain
/// is a Simulator concept, but the handle type lives here).
struct ChainControl {
  bool stopped = false;
};
}  // namespace detail

/// Handle used to cancel a scheduled event. Default-constructed handles are
/// inert; cancelling an already-fired event is a harmless no-op, as is any
/// use after the owning queue was destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Safe to call repeatedly.
  inline void cancel();

  /// True when the handle refers to an event that has neither fired nor
  /// been cancelled.
  inline bool pending() const;

 private:
  friend class EventQueue;
  friend class Simulator;

  EventHandle(std::weak_ptr<const void> alive, EventQueue* queue,
              std::uint32_t slot, std::uint32_t generation)
      : alive_(std::move(alive)),
        queue_(queue),
        slot_(slot),
        generation_(generation) {}
  explicit EventHandle(std::shared_ptr<detail::ChainControl> chain)
      : chain_(std::move(chain)) {}

  /// Liveness token of the owning queue; expires when the queue dies.
  std::weak_ptr<const void> alive_;
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
  /// Set only for periodic-chain handles (see Simulator::schedule_periodic).
  std::shared_ptr<detail::ChainControl> chain_;
};

class EventQueue {
 public:
  using Callback = util::InlineFunction<64>;

  /// Schedules `fn` at canonical key `key`. The caller owns key uniqueness
  /// (equal keys fire in unspecified order) and must not schedule into the
  /// past; `fire_owner` is reported back on pop so the simulator can track
  /// the executing owner. World-ranked keys are additionally indexed for
  /// next_world_time().
  EventHandle schedule_key(EventKey key, std::uint32_t fire_owner,
                           Callback fn);

  bool empty() const;
  std::size_t size() const { return live_count_; }

  /// Time of the earliest live event. Undefined when empty().
  Time next_time() const;

  /// Canonical key of the earliest live event. Undefined when empty().
  EventKey next_key() const;

  /// Earliest live world-ranked (kWorldRank) event, or Time::max() if none.
  Time next_world_time() const;

  /// Removes and returns the earliest live event. Undefined when empty().
  struct Fired {
    Time time;
    std::uint32_t rank;
    std::uint64_t seq;
    std::uint32_t fire_owner;
    Callback fn;
    EventKey key() const { return EventKey{time, rank, seq}; }
  };
  Fired pop();

  /// Drops every pending event (and invalidates their handles).
  void clear();

  /// Slots currently allocated in the slab (capacity watermark, for tests).
  std::size_t slot_capacity() const { return slots_.size(); }

 private:
  friend class EventHandle;

  struct Entry {
    Time time;
    std::uint32_t rank;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.rank != b.rank) return a.rank > b.rank;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;
    std::uint32_t fire_owner = 0;
    bool live = false;
  };

  bool handle_pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].generation == generation;
  }
  void handle_cancel(std::uint32_t slot, std::uint32_t generation);

  std::uint32_t alloc_slot(Callback fn, std::uint32_t fire_owner);

  /// Frees a live slot: destroys the callback now (releasing captured
  /// state), bumps the generation so stale heap entries and handles miss,
  /// and recycles the index.
  void release_slot(std::uint32_t index);

  /// Discards cancelled entries at the head.
  void skip_cancelled() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  /// Secondary index over live world-ranked events; entries are validated
  /// lazily against the slab (slot liveness + generation), so cancellation
  /// needs no bookkeeping here.
  mutable std::priority_queue<Entry, std::vector<Entry>, Later> world_heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  /// Expires with the queue; handles check it before dereferencing queue_.
  std::shared_ptr<const void> alive_ = std::make_shared<int>(0);
};

inline void EventHandle::cancel() {
  if (chain_) {
    chain_->stopped = true;
  } else if (queue_ && !alive_.expired()) {
    queue_->handle_cancel(slot_, generation_);
  }
}

inline bool EventHandle::pending() const {
  if (chain_) return !chain_->stopped;
  return queue_ && !alive_.expired() &&
         queue_->handle_pending(slot_, generation_);
}

}  // namespace et::sim
