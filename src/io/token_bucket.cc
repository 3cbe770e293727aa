#include "src/io/token_bucket.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/util/cpu_timer.h"

namespace plumber {

TokenBucket::TokenBucket(double rate_tokens_per_sec, double burst_tokens)
    : rate_(rate_tokens_per_sec),
      burst_(burst_tokens > 0 ? burst_tokens : rate_tokens_per_sec),
      available_(burst_),
      last_refill_ns_(WallNanos()) {}

void TokenBucket::RefillLocked(int64_t now_ns) {
  const double elapsed_s = (now_ns - last_refill_ns_) * 1e-9;
  if (elapsed_s > 0) {
    available_ = std::min(burst_, available_ + elapsed_s * rate_);
    last_refill_ns_ = now_ns;
  }
}

void TokenBucket::Acquire(double tokens) {
  if (unlimited() || tokens <= 0) return;
  for (;;) {
    double wait_s = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      RefillLocked(WallNanos());
      // Requests larger than the burst capacity are granted once the
      // bucket is full, driving the balance negative ("debt"); the
      // long-run rate is conserved and no request can deadlock.
      const double grant_threshold = std::min(tokens, burst_ - 1e-9);
      if (available_ >= grant_threshold) {
        available_ -= tokens;
        return;
      }
      wait_s = (grant_threshold - available_) / rate_;
    }
    // Sleep outside the lock so other threads can make progress, then
    // re-check: they may have taken the refilled tokens first. The wait
    // is declared blocked so CPU accounting excludes it.
    BlockedRegion blocked;
    std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
  }
}

}  // namespace plumber
