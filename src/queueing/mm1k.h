// M/M/1/k queue formulas.
//
// tf.data's AUTOTUNE represents each Iterator as an M/M/1/k queue
// (paper §2.2). These closed forms back our AUTOTUNE baseline: the
// probability a k-slot buffer is empty determines how much upstream
// latency a prefetch stage hides. As the paper notes, open-system
// formulas make throughput depend only on arrival rates — which is
// exactly why the AUTOTUNE estimator is unbounded; we reproduce that
// property.
#pragma once

namespace plumber {

// rho = lambda / mu (arrival rate over service rate); k = buffer slots.
// Probability the queue is empty (consumer must wait).
double Mm1kProbEmpty(double rho, int k);

// Expected consumer-visible latency contribution of a stage whose
// upstream produces with latency `upstream_latency` into a k-buffer:
// P_empty * upstream_latency (the consumer only waits when empty).
double Mm1kOverlappedLatency(double upstream_latency, double rho, int k);

}  // namespace plumber
