#pragma once

#include <cstdint>

/// A callable that counts how often it is moved, for tests that pin how
/// many times the event queue relocates a callback.
namespace et::testing {

struct MoveCounter {
  /// Incremented by every move of this callable.
  int* moves;
  /// Set to `payload` when the callable runs.
  std::uint64_t* ran_with;
  std::uint64_t payload;

  MoveCounter(int* moves_out, std::uint64_t* ran_with_out,
              std::uint64_t value)
      : moves(moves_out), ran_with(ran_with_out), payload(value) {}
  MoveCounter(MoveCounter&& other) noexcept
      : moves(other.moves), ran_with(other.ran_with), payload(other.payload) {
    ++*moves;
    other.payload = 0;
  }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;

  void operator()() const { *ran_with = payload; }
};

}  // namespace et::testing
