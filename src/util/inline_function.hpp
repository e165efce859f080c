#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

/// A move-only `void()` callable with small-buffer storage.
///
/// `std::function` heap-allocates any callable larger than its tiny internal
/// buffer (16 bytes on common ABIs) and requires copyability. Simulation
/// events are scheduled millions of times per run and their closures
/// routinely capture `this` plus a handful of ids and timestamps, so the
/// event queue uses this type instead: callables up to `Capacity` bytes live
/// inline in the queue's slot slab and never touch the allocator; larger
/// ones fall back to a single heap cell.
namespace et::util {

template <std::size_t Capacity = 64>
class InlineFunction {
  static_assert(Capacity >= sizeof(void*));

  struct VTable {
    void (*invoke)(void* storage);
    /// Move-constructs `dst` from `src`'s payload and destroys `src`'s.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename F>
  struct InlineOps {
    static F* get(void* s) { return std::launder(reinterpret_cast<F*>(s)); }
    static void invoke(void* s) { (*get(s))(); }
    static void relocate(void* dst, void* src) {
      ::new (dst) F(std::move(*get(src)));
      get(src)->~F();
    }
    static void destroy(void* s) { get(s)->~F(); }
    static constexpr VTable vtable{&invoke, &relocate, &destroy};
  };

  template <typename F>
  struct HeapOps {
    static F* get(void* s) {
      return *std::launder(reinterpret_cast<F**>(s));
    }
    static void invoke(void* s) { (*get(s))(); }
    static void relocate(void* dst, void* src) {
      ::new (dst) F*(get(src));
    }
    static void destroy(void* s) { delete get(s); }
    static constexpr VTable vtable{&invoke, &relocate, &destroy};
  };

 public:
  /// True when a callable of type `F` is stored inline (no heap cell).
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vtable_ = &InlineOps<D>::vtable;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vtable_ = &HeapOps<D>::vtable;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { steal(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void operator()() { vtable_->invoke(storage_); }

  explicit operator bool() const { return vtable_ != nullptr; }

 private:
  void reset() {
    if (vtable_) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }
  void steal(InlineFunction& other) noexcept {
    if (other.vtable_) {
      vtable_ = other.vtable_;
      vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  const VTable* vtable_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[Capacity];
};

}  // namespace et::util
