#include "common/log.hpp"

#include <cstdarg>
#include <cstdlib>

namespace ftnoc {
namespace {

LogLevel initial_level() {
  // Backwards-compatible debug hook: FTNOC_DBG in the environment enables
  // the protocol traces (historically an ad-hoc fprintf switch in Router).
  if (std::getenv("FTNOC_DBG") != nullptr) return LogLevel::kTrace;
  return LogLevel::kOff;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "E";
    case LogLevel::kWarn: return "W";
    case LogLevel::kInfo: return "I";
    case LogLevel::kTrace: return "T";
    case LogLevel::kOff: return "-";
  }
  return "?";
}

}  // namespace

namespace detail {
LogLevel g_log_level = initial_level();

void log_line(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[ftnoc %s] %s\n", level_tag(level), msg.c_str());
}
}  // namespace detail

void set_log_level(LogLevel level) {
  detail::g_log_level = level;
}

std::string trace_fmt(const char* fmt, ...) {
  char buf[192];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return std::string(buf);
}

}  // namespace ftnoc
