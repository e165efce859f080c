#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

/// A fixed-capacity map with exact least-recently-used eviction.
///
/// Every mote carries several of these:
///  - the transport's (§5.4) last-known-leader table, per-destination
///    sequence counters, receiver dedup window and negative resolve cache.
///    "Leadership information is retained for as long as possible, given
///    limited table sizes. Replacement is done on a least-recently-used
///    basis."
///  - group management's heartbeat and relayed-report dedup windows (§5.2);
///  - geographic routing's envelope dedup window.
///
/// Most motes of a large field never touch them, so the layout is flat and
/// lazy. Entries live in one slot vector, linked into the recency list by
/// 32-bit indices and found through a linear-probing index of slot numbers
/// (backward-shift deletion, load factor at most 1/2). Nothing is allocated
/// before the first put(); the slot vector then doubles up to `capacity`,
/// so memory is bounded by capacity x (one slot + at most four 32-bit index
/// words), two words when the capacity is a power of two.
namespace et {

template <typename K, typename V>
class LruMap {
 public:
  /// `capacity` must be >= 1.
  explicit LruMap(std::size_t capacity)
      : capacity_(static_cast<std::uint32_t>(capacity)) {
    assert(capacity >= 1 && capacity < kNil);
  }

  std::size_t size() const { return slots_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return slots_.empty(); }

  /// Inserts or overwrites, marking the key most-recently-used. Returns the
  /// evicted entry, if the insertion pushed one out.
  std::optional<std::pair<K, V>> put(const K& key, V value) {
    if (const std::uint32_t i = lookup(key); i != kNil) {
      slots_[i].value = std::move(value);
      touch(i);
      return std::nullopt;
    }
    if (slots_.size() < capacity_) {
      if (slots_.size() == slots_.capacity()) grow();
      const auto i = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{key, std::move(value), kNil, kNil});
      index_insert(i);
      link_front(i);
      return std::nullopt;
    }
    // Full: the least-recently-used slot is recycled for the new key.
    const std::uint32_t victim = tail_;
    Slot& slot = slots_[victim];
    unlink(victim);
    index_erase_at(position_of(victim));
    std::pair<K, V> evicted{std::move(slot.key), std::move(slot.value)};
    slot.key = key;
    slot.value = std::move(value);
    index_insert(victim);
    link_front(victim);
    return evicted;
  }

  /// Looks up and refreshes recency. Returns nullptr when absent. The
  /// pointer is invalidated by the next mutating call.
  V* get(const K& key) {
    const std::uint32_t i = lookup(key);
    if (i == kNil) return nullptr;
    touch(i);
    return &slots_[i].value;
  }

  /// Looks up without refreshing recency.
  const V* peek(const K& key) const {
    const std::uint32_t i = lookup(key);
    return i == kNil ? nullptr : &slots_[i].value;
  }

  bool contains(const K& key) const { return lookup(key) != kNil; }

  bool erase(const K& key) {
    const std::uint32_t i = lookup(key);
    if (i == kNil) return false;
    unlink(i);
    index_erase_at(position_of(i));
    // Keep the slots dense: the last slot moves into the hole.
    const auto last = static_cast<std::uint32_t>(slots_.size() - 1);
    if (i != last) {
      index_[position_of(last)] = i;
      slots_[i] = std::move(slots_[last]);
      const Slot& moved = slots_[i];
      (moved.prev == kNil ? head_ : slots_[moved.prev].next) = i;
      (moved.next == kNil ? tail_ : slots_[moved.next].prev) = i;
    }
    slots_.pop_back();
    return true;
  }

  /// Forgets every entry and releases the storage.
  void clear() {
    slots_ = std::vector<Slot>();
    index_ = std::vector<std::uint32_t>();
    head_ = tail_ = kNil;
  }

  /// Iterates entries from most- to least-recently used.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t i = head_; i != kNil; i = slots_[i].next) {
      fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kMinSlots = 4;

  struct Slot {
    K key;
    V value;
    std::uint32_t prev;  // towards the most recently used
    std::uint32_t next;  // towards the least recently used
  };

  std::size_t mask() const { return index_.size() - 1; }

  /// Home bucket: Fibonacci hashing of std::hash, top bits.
  std::size_t home(const K& key) const {
    const std::uint64_t h =
        static_cast<std::uint64_t>(std::hash<K>{}(key)) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h >> shift_);
  }

  std::uint32_t lookup(const K& key) const {
    if (index_.empty()) return kNil;
    for (std::size_t p = home(key);; p = (p + 1) & mask()) {
      const std::uint32_t i = index_[p];
      if (i == kNil || slots_[i].key == key) return i;
    }
  }

  /// Index position holding slot `i` (which must be indexed).
  std::size_t position_of(std::uint32_t i) const {
    std::size_t p = home(slots_[i].key);
    while (index_[p] != i) p = (p + 1) & mask();
    return p;
  }

  void index_insert(std::uint32_t i) {
    std::size_t p = home(slots_[i].key);
    while (index_[p] != kNil) p = (p + 1) & mask();
    index_[p] = i;
  }

  /// Backward-shift deletion: pulls each later entry of the probe run into
  /// the hole when its home bucket allows, so no tombstones are needed.
  void index_erase_at(std::size_t hole) {
    for (std::size_t p = (hole + 1) & mask(); index_[p] != kNil;
         p = (p + 1) & mask()) {
      const std::size_t from_home = (p - home(slots_[index_[p]].key)) & mask();
      if (from_home >= ((p - hole) & mask())) {
        index_[hole] = index_[p];
        hole = p;
      }
    }
    index_[hole] = kNil;
  }

  /// Doubles the slot vector (up to capacity) and rebuilds the index at
  /// twice the slot count.
  void grow() {
    const std::size_t slots =
        std::min<std::size_t>(capacity_, std::max(kMinSlots, 2 * slots_.size()));
    slots_.reserve(slots);
    const std::size_t buckets = std::bit_ceil(2 * slots_.capacity());
    shift_ = 64 - std::countr_zero(buckets);
    index_.assign(buckets, kNil);
    for (std::uint32_t i = 0; i < slots_.size(); ++i) index_insert(i);
  }

  void unlink(std::uint32_t i) {
    Slot& slot = slots_[i];
    (slot.prev == kNil ? head_ : slots_[slot.prev].next) = slot.next;
    (slot.next == kNil ? tail_ : slots_[slot.next].prev) = slot.prev;
  }

  void link_front(std::uint32_t i) {
    slots_[i].prev = kNil;
    slots_[i].next = head_;
    (head_ == kNil ? tail_ : slots_[head_].prev) = i;
    head_ = i;
  }

  void touch(std::uint32_t i) {
    if (head_ == i) return;
    unlink(i);
    link_front(i);
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> index_;  // slot numbers; kNil = empty bucket
  std::uint32_t capacity_;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  std::uint32_t shift_ = 64;
};

}  // namespace et
