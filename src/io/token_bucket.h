// Token-bucket rate limiter.
//
// The paper's disk microbenchmarks (§5.2) use a token-bucket bandwidth
// limiter patched into the TensorFlow filesystem layer; this is the
// equivalent standalone component. Acquire() blocks the calling thread
// (wall-clock sleep, no CPU burn) until enough tokens accumulate, so
// thread-CPU-time accounting correctly sees I/O waits as idle.
#pragma once

#include <cstdint>
#include <mutex>

namespace plumber {

class TokenBucket {
 public:
  // rate == 0 means unlimited. burst defaults to one second of tokens.
  explicit TokenBucket(double rate_tokens_per_sec, double burst_tokens = 0);

  // Blocks until `tokens` tokens are consumed. Thread-safe.
  void Acquire(double tokens);

  bool unlimited() const { return rate_ <= 0; }
  double rate() const { return rate_; }

 private:
  void RefillLocked(int64_t now_ns);

  std::mutex mu_;
  double rate_;
  double burst_;
  double available_;
  int64_t last_refill_ns_;
};

}  // namespace plumber
