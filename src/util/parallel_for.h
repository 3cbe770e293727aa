// ParallelFor: a fork-join loop over short-lived threads.
#pragma once

#include <functional>

namespace plumber {

// Runs fn(i) for i in [0, n) across up to `parallelism` threads created
// on the spot; blocks until done. Convenience for inner-parallel UDFs.
void ParallelFor(int n, int parallelism, const std::function<void(int)>& fn);

}  // namespace plumber
