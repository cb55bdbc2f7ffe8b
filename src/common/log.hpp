#pragma once
// Minimal leveled logging. Off by default; enabled per-run for debugging
// (e.g. tracing a deadlock recovery episode in an example binary).
//
// The level check is an inline load of a plain global, so a disabled log
// statement in a hot loop costs one predictable branch and — because the
// message expression sits inside the guard — zero formatting work.
// FTNOC_MIN_LOG_LEVEL additionally compiles statements above the floor out
// entirely (e.g. -DFTNOC_MIN_LOG_LEVEL=0 strips all logging).
//
// Setting FTNOC_DBG in the environment seeds the level to kTrace at
// startup, which is how the deadlock-protocol traces in Router are turned
// on without recompiling.

#include <cstdio>
#include <string>

namespace ftnoc {

enum class LogLevel : int {
  kOff = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kTrace = 4,
};

namespace detail {
/// Global log threshold. Not thread-safe by design: the simulator is
/// single-threaded per Simulator and tools set this once at startup.
extern LogLevel g_log_level;
void log_line(LogLevel level, const std::string& msg);
}  // namespace detail

inline LogLevel log_level() { return detail::g_log_level; }
void set_log_level(LogLevel level);

/// Cheap inline guard for callers that want to batch several statements
/// (or precompute a message) under one check.
inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) <= static_cast<int>(detail::g_log_level);
}

/// printf-style formatting for a trace message. Call it only inside an
/// FTNOC_TRACE guard, so the formatting work vanishes when tracing is off.
/// Messages longer than 191 characters are truncated.
std::string trace_fmt(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace ftnoc

/// Statements above this level are removed at compile time.
#ifndef FTNOC_MIN_LOG_LEVEL
#define FTNOC_MIN_LOG_LEVEL 4
#endif

#define FTNOC_LOG(level, msg)                                     \
  do {                                                            \
    if constexpr (static_cast<int>(level) <= FTNOC_MIN_LOG_LEVEL) { \
      if (::ftnoc::log_enabled(level)) {                          \
        ::ftnoc::detail::log_line((level), (msg));                \
      }                                                           \
    }                                                             \
  } while (false)

#define FTNOC_TRACE(msg) FTNOC_LOG(::ftnoc::LogLevel::kTrace, (msg))
#define FTNOC_INFO(msg) FTNOC_LOG(::ftnoc::LogLevel::kInfo, (msg))
#define FTNOC_WARN(msg) FTNOC_LOG(::ftnoc::LogLevel::kWarn, (msg))
#define FTNOC_ERROR(msg) FTNOC_LOG(::ftnoc::LogLevel::kError, (msg))
