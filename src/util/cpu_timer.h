// Wall-clock and per-thread CPU-time clocks.
//
// Plumber's tracing design depends on thread-CPU timers: time a thread
// spends blocked (e.g. on a token-bucket-limited read or an empty queue)
// must not count as CPU work, so that I/O-bound Datasets are accounted
// correctly (paper §B "Measuring CPU").
#pragma once

#include <cstdint>

namespace plumber {

// Monotonic wall clock, nanoseconds.
int64_t WallNanos();

// CPU time consumed by the whole process, nanoseconds.
int64_t ProcessCpuNanos();

// --- Virtual thread-CPU clock -------------------------------------
// Wall time minus explicitly declared blocked time on this thread.
// All blocking sites in the runtime (token-bucket stalls, bounded-queue
// waits, simulated device latency) mark themselves with BlockedRegion,
// so for the engine's spin-kernel workloads this clock matches true
// thread CPU time at nanosecond granularity. It exists because many
// kernels account CLOCK_THREAD_CPUTIME_ID at scheduler-tick (10ms)
// granularity, far too coarse for per-Next-call attribution.
int64_t ThreadVirtualCpuNanos();

// Adds `ns` to the calling thread's blocked-time ledger.
void AddBlockedNanos(int64_t ns);

// RAII marker for a region where the thread is blocked, not computing.
class BlockedRegion {
 public:
  BlockedRegion() : start_(WallNanos()) {}
  ~BlockedRegion() { AddBlockedNanos(WallNanos() - start_); }
  BlockedRegion(const BlockedRegion&) = delete;
  BlockedRegion& operator=(const BlockedRegion&) = delete;

 private:
  int64_t start_;
};

}  // namespace plumber
