#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace et::sim {

std::uint32_t EventQueue::alloc_slot(Callback&& fn, std::uint32_t fire_owner,
                                     Duration period) {
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = slot_count_++;
    // The first slot of a chunk that does not exist yet: add the chunk.
    if (place(index).offset == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(chunk_slots(chunks_.size())));
    }
  }
  Slot& slot = slot_at(index);
  assert(!is_live(slot.generation));
  ++slot.generation;
  slot.fn = std::move(fn);
  slot.fire_owner = fire_owner;
  slot.period = period;
  ++live_count_;
  return index;
}

void EventQueue::push_entry(EventKey key, std::uint32_t slot) {
  const Entry entry{key.time, key.rank, key.seq, slot,
                    slot_at(slot).generation};
  heap_.push(entry);
  if (key.rank == kWorldRank) world_heap_.push(entry);
}

EventHandle EventQueue::schedule_key(EventKey key, std::uint32_t fire_owner,
                                     Callback&& fn, Duration period) {
  assert(!period.is_negative());
  const std::uint32_t index = alloc_slot(std::move(fn), fire_owner, period);
  push_entry(key, index);
  return EventHandle{alive_, this, index, slot_at(index).generation};
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slot_at(index);
  assert(is_live(slot.generation));
  slot.fn = nullptr;
  ++slot.generation;
  free_slots_.push_back(index);
  --live_count_;
}

void EventQueue::handle_cancel(std::uint32_t slot, std::uint32_t generation) {
  if (!handle_pending(slot, generation)) return;
  // The heap entry stays behind; its generation no longer matches and
  // skip_cancelled() drops it when it surfaces. A periodic event cancelled
  // from its own callback has no entry queued: rearm() is skipped.
  release_slot(slot);
}

void EventQueue::skip_cancelled() const {
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    if (slot_at(top.slot).generation == top.generation) return;
    heap_.pop();
  }
}

bool EventQueue::empty() const {
  skip_cancelled();
  return heap_.empty();
}

Time EventQueue::next_time() const {
  skip_cancelled();
  assert(!heap_.empty());
  return heap_.top().time;
}

EventKey EventQueue::next_key() const {
  skip_cancelled();
  assert(!heap_.empty());
  const Entry& top = heap_.top();
  return EventKey{top.time, top.rank, top.seq};
}

Time EventQueue::next_world_time() const {
  while (!world_heap_.empty()) {
    const Entry& top = world_heap_.top();
    if (slot_at(top.slot).generation == top.generation) return top.time;
    world_heap_.pop();
  }
  return Time::max();
}

EventQueue::Fired EventQueue::pop() {
  skip_cancelled();
  assert(!heap_.empty());
  const Entry top = heap_.top();
  heap_.pop();
  if (top.rank == kWorldRank) {
    // The earliest live event is also the earliest live world event; drop
    // its index entry now, since a periodic slot keeps its generation.
    next_world_time();
    assert(world_heap_.top().slot == top.slot &&
           world_heap_.top().generation == top.generation);
    world_heap_.pop();
  }
  Slot& slot = slot_at(top.slot);
  Fired fired{top.time,  top.rank,        top.seq,  slot.fire_owner,
              std::move(slot.fn), slot.period, top.slot, top.generation};
  if (!slot.period.is_positive()) release_slot(top.slot);
  return fired;
}

void EventQueue::rearm(Fired&& fired, EventKey key) {
  assert(still_armed(fired) && fired.period.is_positive());
  assert(key.time > fired.time);
  slot_at(fired.slot).fn = std::move(fired.fn);
  push_entry(key, fired.slot);
}

void EventQueue::clear() {
  while (!heap_.empty()) heap_.pop();
  while (!world_heap_.empty()) world_heap_.pop();
  for (std::uint32_t i = 0; i < slot_count_; ++i) {
    if (is_live(slot_at(i).generation)) release_slot(i);
  }
  assert(live_count_ == 0);
}

}  // namespace et::sim
