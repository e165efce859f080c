#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

/// A FIFO queue on a power-of-two ring buffer that allocates nothing until
/// the first push and then doubles as needed.
///
/// Every mote owns two queues — its CPU task queue and its radio's transmit
/// queue — and in a large field almost all of them stay empty for the whole
/// run. A default-constructed std::deque allocates its map and a first chunk
/// (over half a kilobyte) up front; this queue costs 24 bytes until used.
/// Capacity limits are the caller's business: the queue itself is unbounded.
namespace et {

template <typename T>
class FifoQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }

  void push_back(T value) {
    if (size_ == cap_) grow();
    buf_[(head_ + size_) & (cap_ - 1)] = std::move(value);
    ++size_;
  }

  /// Drops the front element, releasing whatever it still holds.
  void pop_front() {
    assert(size_ > 0);
    buf_[head_] = T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

 private:
  static constexpr std::uint32_t kInitialCapacity = 2;

  void grow() {
    const std::uint32_t cap = cap_ == 0 ? kInitialCapacity : 2 * cap_;
    auto buf = std::make_unique<T[]>(cap);
    for (std::uint32_t i = 0; i < size_; ++i) {
      buf[i] = std::move(buf_[(head_ + i) & (cap_ - 1)]);
    }
    buf_ = std::move(buf);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::uint32_t cap_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace et
