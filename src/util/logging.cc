#include "src/util/logging.h"

#include <cstdio>
#include <mutex>

namespace plumber {
namespace {

std::mutex g_log_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace internal
}  // namespace plumber
