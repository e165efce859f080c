#pragma once

#include <bit>
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
/// {index, generation} handles; the heap orders plain POD entries. The slab
/// is a list of chunks that never move: a slot is placed once, and growing
/// the slab adds a chunk instead of copying the slots it has.
/// Cancellation is O(1) — it releases the slot and bumps its generation, so
/// the stale heap entry and any stale handles are recognised and skipped.
/// A periodic event is an ordinary slot that stays reserved while its
/// callback runs and is re-armed in place afterwards, so one slot, one
/// callback and one handle serve every firing.
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

/// Handle used to cancel a scheduled event (a periodic one: every future
/// firing). Default-constructed handles are inert; cancelling an
/// already-fired event is a harmless no-op, as is any use after the owning
/// queue was destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Safe to call repeatedly, and from
  /// inside the event's own callback.
  inline void cancel();

  /// True when the handle refers to an event that has neither fired nor
  /// been cancelled. A periodic event stays pending between (and during)
  /// its firings until it is cancelled or its queue is cleared.
  inline bool pending() const;

 private:
  friend class EventQueue;

  EventHandle(std::weak_ptr<const void> alive, EventQueue* queue,
              std::uint32_t slot, std::uint32_t generation)
      : alive_(std::move(alive)),
        queue_(queue),
        slot_(slot),
        generation_(generation) {}

  /// Liveness token of the owning queue; expires when the queue dies.
  std::weak_ptr<const void> alive_;
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  using Callback = util::InlineFunction<64>;

  /// Schedules `fn` at canonical key `key`. The caller owns key uniqueness
  /// (equal keys fire in unspecified order) and must not schedule into the
  /// past; `fire_owner` is reported back on pop so the simulator can track
  /// the executing owner. World-ranked keys are additionally indexed for
  /// next_world_time(). A positive `period` makes the event periodic: pop()
  /// keeps its slot, and rearm() puts it back once its callback returned.
  /// `fn` is moved once, into its slot.
  EventHandle schedule_key(EventKey key, std::uint32_t fire_owner,
                           Callback&& fn, Duration period = Duration::zero());

  bool empty() const;
  std::size_t size() const { return live_count_; }

  /// Time of the earliest live event. Undefined when empty().
  Time next_time() const;

  /// Canonical key of the earliest live event. Undefined when empty().
  EventKey next_key() const;

  /// Earliest live world-ranked (kWorldRank) event, or Time::max() if none.
  Time next_world_time() const;

  /// Removes and returns the earliest live event. Undefined when empty().
  /// A one-shot's slot is released; a periodic event's slot stays live
  /// (and its handles pending) with the callback moved out into `fn`.
  struct Fired {
    Time time;
    std::uint32_t rank;
    std::uint64_t seq;
    std::uint32_t fire_owner;
    Callback fn;
    /// Zero for a one-shot.
    Duration period;
    std::uint32_t slot;
    std::uint32_t generation;
    EventKey key() const { return EventKey{time, rank, seq}; }
  };
  Fired pop();

  /// True when the periodic event `fired` is still armed: not cancelled
  /// (nor cleared) while its callback ran.
  bool still_armed(const Fired& fired) const {
    return handle_pending(fired.slot, fired.generation);
  }

  /// Puts the still-armed periodic event `fired` back at `key`, with its
  /// callback, in the slot it kept.
  void rearm(Fired&& fired, EventKey key);

  /// Drops a popped event that will not run: a periodic one also gives
  /// back the slot it kept.
  void discard(const Fired& fired) {
    if (fired.period.is_positive()) handle_cancel(fired.slot, fired.generation);
  }

  /// Drops every pending event (and invalidates their handles).
  void clear();

  /// Slots handed out so far (the slab's watermark, for tests).
  std::size_t slot_capacity() const { return slot_count_; }

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
    /// Odd while the slot holds a live event: allocation and release each
    /// bump it, so a stale heap entry or handle never matches.
    std::uint32_t generation = 0;
    std::uint32_t fire_owner = 0;
    /// Zero for a one-shot.
    Duration period;
  };

  /// Slab chunks hold 64, 128, ..., 4,096 slots, then 4,096 each: a small
  /// queue stays small, and a large one wastes at most one chunk of slots
  /// where doubling would leave up to half the slab unused.
  static constexpr std::uint32_t kFirstChunkSlots = 64;
  static constexpr std::uint32_t kMaxChunkSlots = 4096;
  /// The chunks that double (seven), and the slots they hold (8,128).
  static constexpr std::uint32_t kDoublingChunks =
      std::bit_width(kMaxChunkSlots / kFirstChunkSlots);
  static constexpr std::uint32_t kDoublingSlots =
      kFirstChunkSlots * ((1u << kDoublingChunks) - 1);

  static constexpr std::uint32_t chunk_slots(std::size_t chunk) {
    return chunk < kDoublingChunks ? kFirstChunkSlots << chunk
                                   : kMaxChunkSlots;
  }
  /// The chunk holding slot `index`, and the slot's place in it.
  struct SlotPlace {
    std::uint32_t chunk;
    std::uint32_t offset;
  };
  static constexpr SlotPlace place(std::uint32_t index) {
    if (index < kDoublingSlots) {
      const auto chunk = static_cast<std::uint32_t>(
          std::bit_width(index / kFirstChunkSlots + 1) - 1);
      return {chunk, index - kFirstChunkSlots * ((1u << chunk) - 1)};
    }
    const std::uint32_t rest = index - kDoublingSlots;
    return {kDoublingChunks + rest / kMaxChunkSlots, rest % kMaxChunkSlots};
  }
  Slot& slot_at(std::uint32_t index) {
    const SlotPlace p = place(index);
    return chunks_[p.chunk][p.offset];
  }
  const Slot& slot_at(std::uint32_t index) const {
    const SlotPlace p = place(index);
    return chunks_[p.chunk][p.offset];
  }

  static bool is_live(std::uint32_t generation) { return generation & 1u; }

  bool handle_pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slot_count_ && slot_at(slot).generation == generation;
  }
  void handle_cancel(std::uint32_t slot, std::uint32_t generation);

  std::uint32_t alloc_slot(Callback&& fn, std::uint32_t fire_owner,
                           Duration period);
  /// Queues a heap entry (and a world-index entry) for `slot` at `key`.
  void push_entry(EventKey key, std::uint32_t slot);

  /// Frees a live slot: destroys the callback now (releasing captured
  /// state), bumps the generation so stale heap entries and handles miss,
  /// and recycles the index.
  void release_slot(std::uint32_t index);

  /// Discards cancelled entries at the head.
  void skip_cancelled() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  /// Secondary index over live world-ranked events; entries are validated
  /// lazily against the slab (slot generation), so cancellation needs no
  /// bookkeeping here. pop() removes a fired event's entry, because a
  /// periodic event keeps its slot and generation.
  mutable std::priority_queue<Entry, std::vector<Entry>, Later> world_heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Slots handed out: indices below it are in use or on free_slots_.
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  /// Expires with the queue; handles check it before dereferencing queue_.
  std::shared_ptr<const void> alive_ = std::make_shared<int>(0);
};

inline void EventHandle::cancel() {
  if (queue_ && !alive_.expired()) queue_->handle_cancel(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return queue_ && !alive_.expired() &&
         queue_->handle_pending(slot_, generation_);
}

}  // namespace et::sim
