#pragma once
// Test values for the FTNOC_CONFIG_KEYS walks: for each member type, a
// value different from a given one, its override text and its JSONL text.

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

#include "common/config.hpp"

namespace ftnoc::test {

inline int other_value(int v) { return v + 1; }
inline std::uint64_t other_value(std::uint64_t v) { return v + 7; }
inline double other_value(double v) { return v + 0.125; }
inline bool other_value(bool v) { return !v; }
inline std::string other_value(const std::string& v) {
  return v == "drop_window" ? "strand_waiter" : "drop_window";
}
template <class E>
  requires std::is_enum_v<E>
E other_value(E v) {
  return v == E{} ? E{1} : E{};
}

template <class T>
std::string override_text(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else if constexpr (std::is_same_v<T, double>) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  } else if constexpr (std::is_enum_v<T>) {
    return to_string(v);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    return v;
  }
}

template <class T>
std::string json_text(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_enum_v<T> ||
                       std::is_same_v<T, std::string>) {
    return "\"" + override_text(v) + "\"";
  } else {
    return override_text(v);
  }
}

}  // namespace ftnoc::test
