// Modeled user-defined functions (UDFs).
//
// Real pipelines spend most of their time inside UDFs (JPEG decode,
// parsing, augmentation, tokenization). We model a UDF by its observable
// cost profile: CPU time per element/byte, output-size ratio, optional
// internal parallelism (the RCNN hazard from paper §5.1 where one
// logical call transparently uses ~3 cores), and whether it reads a
// random seed. Randomness is declared through a call graph so Plumber's
// cacheability check (§B.1) can compute the transitive closure
// f -+-> seed exactly as described.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/pipeline/element.h"
#include "src/util/status.h"

namespace plumber {

struct UdfSpec {
  std::string name;
  // CPU cost model: burned thread-CPU nanoseconds per call.
  double cost_ns_per_element = 0;
  double cost_ns_per_byte = 0;
  // Output bytes = input bytes * size_ratio.
  double size_ratio = 1.0;
  // The UDF's own internal parallelism: a single logical call fans its
  // work out over this many threads (>=1).
  int internal_parallelism = 1;
  // Directly accesses a random seed.
  bool accesses_random_seed = false;
  // For predicates (filter): fraction of elements kept.
  double keep_fraction = 1.0;
  // Names of other UDFs this function calls (for the transitive
  // randomness closure).
  std::vector<std::string> calls;
};

class UdfRegistry {
 public:
  Status Register(UdfSpec spec);
  const UdfSpec* Find(const std::string& name) const;

  // True if `name` or anything it transitively calls accesses a random
  // seed (paper §B.1: f -+-> s).
  bool IsTransitivelyRandom(const std::string& name) const;

  std::vector<std::string> Names() const;

 private:
  std::map<std::string, UdfSpec> udfs_;
};

// How modeled UDF cost executes: a cost of 100 us or more occupies one
// core of the *modeled* machine for its duration, implemented as a
// timed wait. Concurrent modeled work overlaps on any host — including
// hosts with fewer physical cores than MachineSpec::num_cores — so
// measured speedups reflect the machine being simulated, not the
// machine running the simulation. The wait is charged to the virtual
// thread-CPU clock (it is not a BlockedRegion), so tracing and the LP
// see the same per-element cost a physical burn would produce. Smaller
// costs cannot be waited on precisely and burn a physical core
// (calibrated spin rounds) instead.

// Executes a map-style UDF: executes the modeled CPU cost (splitting it
// over internal_parallelism threads) and produces the transformed
// element. `cpu_scale` multiplies the cost (machine speed modeling).
// The call consumes `input`: the output buffer is drawn from the
// BufferPool arena and the input's component buffers are recycled into
// it, so the steady-state element stream stops hitting the global
// allocator.
Element ExecuteMapUdf(const UdfSpec& spec, Element&& input, double cpu_scale,
                      uint64_t seed);

// Executes a filter-style UDF; returns the keep decision. Executes the
// modeled predicate cost. Decisions are deterministic in (seed,
// element.sequence) so reruns keep the same elements.
bool ExecuteFilterUdf(const UdfSpec& spec, const Element& input,
                      double cpu_scale, uint64_t seed);

}  // namespace plumber
