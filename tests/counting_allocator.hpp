#pragma once

/// Replaces the global `operator new`/`delete` with a counting pair, for
/// tests that pin how much a component allocates.
///
/// Requested bytes are counted through a size prefix on every block, not
/// read from malloc, so the numbers are the same under ASan/UBSan and TSan.
/// The replacement is global: include this header in exactly one source
/// file of a test binary, and give such tests a binary of their own.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace et::testing {

inline std::atomic<std::int64_t> g_live_bytes{0};
inline std::atomic<std::uint64_t> g_allocations{0};

/// Bytes currently allocated through `operator new`.
inline std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

/// Allocations made so far.
inline std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Keeps the user block at malloc's alignment.
inline constexpr std::size_t kPrefix = alignof(std::max_align_t);

inline void* counted_alloc(std::size_t size) {
  void* block = std::malloc(size + kPrefix);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(block) + kPrefix;
}

inline void counted_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  void* block = static_cast<char*>(ptr) - kPrefix;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}

}  // namespace et::testing

void* operator new(std::size_t size) {
  return et::testing::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return et::testing::counted_alloc(size);
}
void operator delete(void* ptr) noexcept { et::testing::counted_free(ptr); }
void operator delete[](void* ptr) noexcept { et::testing::counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept {
  et::testing::counted_free(ptr);
}
void operator delete[](void* ptr, std::size_t) noexcept {
  et::testing::counted_free(ptr);
}
