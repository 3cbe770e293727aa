#include "src/util/cpu_timer.h"

#include <ctime>

namespace plumber {
namespace {

inline int64_t ReadClock(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

int64_t WallNanos() { return ReadClock(CLOCK_MONOTONIC); }

int64_t ProcessCpuNanos() { return ReadClock(CLOCK_PROCESS_CPUTIME_ID); }

namespace {
thread_local int64_t t_blocked_ns = 0;
}  // namespace

void AddBlockedNanos(int64_t ns) {
  if (ns > 0) t_blocked_ns += ns;
}

int64_t ThreadVirtualCpuNanos() { return WallNanos() - t_blocked_ns; }

}  // namespace plumber
