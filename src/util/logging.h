// Minimal leveled logging to stderr. Every message is printed.
#pragma once

#include <sstream>
#include <string>

namespace plumber {

enum class LogLevel { kInfo, kWarning, kError };

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace plumber

#define PLOG(level)                                                     \
  ::plumber::internal::LogMessage(::plumber::LogLevel::k##level,        \
                                  __FILE__, __LINE__)
