#pragma once
// Fixed-capacity slot storage that construction leaves unwritten.
//
// A wire register, a credit bundle or a small inline vector holds values
// only between the write that puts one in a slot and the read that takes
// it out; no code reads a slot before its first write. RawSlots keeps the
// N slots as plain bytes, so building the container costs nothing per
// slot, and a slot's value begins its lifetime at put(). The element type
// must be trivially copyable and trivially destructible: a slot is then
// overwritten or abandoned without a destructor call, and the containers
// copy values in and out with plain stores.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

namespace ftnoc {

template <typename T, std::size_t N>
class RawSlots {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "raw slots hold only trivially copyable values");

 public:
  // Deliberately user-provided and empty, so a `{}` member initializer
  // does not zero-fill the slots. Value-initializing an owner whose own
  // default constructor is implicit still zero-fills all of it; an owner
  // built by vector::resize needs a user-provided constructor too (Wire).
  RawSlots() noexcept {}

  /// Begins slot `i`'s lifetime as a copy of `v` and returns it, so the
  /// writer can finish the value in place.
  T& put(std::size_t i, const T& v) {
    return *std::construct_at(data() + i, v);
  }

  /// The slots as an array; only slots written since construction hold a
  /// value.
  T* data() { return std::launder(reinterpret_cast<T*>(bytes_)); }
  const T* data() const {
    return std::launder(reinterpret_cast<const T*>(bytes_));
  }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

 private:
  alignas(T) std::byte bytes_[N * sizeof(T)];
};

}  // namespace ftnoc
