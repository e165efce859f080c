#pragma once

#include <cassert>
#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>

/// Reference model for et::LruMap: the original node-based implementation
/// (a std::list in recency order plus a std::unordered_map from key to list
/// node). Its behaviour is obviously right and its memory cost is not, so it
/// lives here, where the differential test in test_lru_map.cpp drives it
/// side by side with the flat production map.
namespace et::test {

template <typename K, typename V>
class ReferenceLruMap {
 public:
  /// `capacity` must be >= 1.
  explicit ReferenceLruMap(std::size_t capacity) : capacity_(capacity) {
    assert(capacity_ >= 1);
  }

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return index_.empty(); }

  /// Inserts or overwrites, marking the key most-recently-used. Returns the
  /// evicted entry, if the insertion pushed one out.
  std::optional<std::pair<K, V>> put(const K& key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      touch(it->second);
      return std::nullopt;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    if (index_.size() > capacity_) {
      auto last = std::prev(order_.end());
      std::pair<K, V> evicted = std::move(*last);
      index_.erase(evicted.first);
      order_.erase(last);
      return evicted;
    }
    return std::nullopt;
  }

  /// Looks up and refreshes recency. Returns nullptr when absent. The
  /// pointer is invalidated by the next mutating call.
  V* get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    touch(it->second);
    return &it->second->second;
  }

  /// Looks up without refreshing recency.
  const V* peek(const K& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  bool contains(const K& key) const { return index_.count(key) > 0; }

  bool erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void clear() {
    order_.clear();
    index_.clear();
  }

  /// Iterates entries from most- to least-recently used.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [k, v] : order_) fn(k, v);
  }

 private:
  using Entry = std::pair<K, V>;
  using Order = std::list<Entry>;

  void touch(typename Order::iterator it) {
    order_.splice(order_.begin(), order_, it);
  }

  std::size_t capacity_;
  Order order_;  // front = most recently used
  std::unordered_map<K, typename Order::iterator> index_;
};

}  // namespace et::test
