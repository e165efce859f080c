#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace et::sim {

std::uint32_t EventQueue::alloc_slot(Callback fn, std::uint32_t fire_owner) {
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.fire_owner = fire_owner;
  slot.live = true;
  ++live_count_;
  return index;
}

EventHandle EventQueue::schedule_key(EventKey key, std::uint32_t fire_owner,
                                     Callback fn) {
  const std::uint32_t index = alloc_slot(std::move(fn), fire_owner);
  const Entry entry{key.time, key.rank, key.seq, index,
                    slots_[index].generation};
  heap_.push(entry);
  if (key.rank == kWorldRank) world_heap_.push(entry);
  return EventHandle{alive_, this, index, slots_[index].generation};
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  assert(slot.live);
  slot.fn = nullptr;
  slot.live = false;
  ++slot.generation;
  free_slots_.push_back(index);
  --live_count_;
}

void EventQueue::handle_cancel(std::uint32_t slot, std::uint32_t generation) {
  if (!handle_pending(slot, generation)) return;
  // The heap entry stays behind; its generation no longer matches and
  // skip_cancelled() drops it when it surfaces.
  release_slot(slot);
}

void EventQueue::skip_cancelled() const {
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    const Slot& slot = slots_[top.slot];
    if (slot.live && slot.generation == top.generation) return;
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
    const Slot& slot = slots_[top.slot];
    if (slot.live && slot.generation == top.generation) return top.time;
    world_heap_.pop();
  }
  return Time::max();
}

EventQueue::Fired EventQueue::pop() {
  skip_cancelled();
  assert(!heap_.empty());
  const Entry top = heap_.top();
  heap_.pop();
  Fired fired{top.time, top.rank, top.seq, slots_[top.slot].fire_owner,
              std::move(slots_[top.slot].fn)};
  release_slot(top.slot);
  return fired;
}

void EventQueue::clear() {
  while (!heap_.empty()) heap_.pop();
  while (!world_heap_.empty()) world_heap_.pop();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live) release_slot(i);
  }
  assert(live_count_ == 0);
}

}  // namespace et::sim
