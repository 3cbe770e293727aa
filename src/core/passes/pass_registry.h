// PassRegistry: the name -> OptimizerPass factory table, and
// PassSchedule: a validated, ordered list of pass names parsed from a
// string like "parallelism,prefetch,cache,parallelism".
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/passes/pass.h"

namespace plumber {

// The schedule PlumberOptimizer runs when none is specified. It
// reproduces the pre-framework optimizer exactly: one trace feeds LP
// parallelism, prefetch injection, and cache insertion; a second
// parallelism pass re-traces (at cache steady state, if one was
// injected) and redistributes the freed cores.
inline constexpr char kDefaultPassSchedule[] =
    "parallelism,prefetch,cache,parallelism";

class PassRegistry {
 public:
  using Factory = std::function<std::unique_ptr<OptimizerPass>()>;

  // The process-wide registry, pre-populated with the built-in passes
  // in their canonical order: parallelism, prefetch, cache, batch,
  // shard_sources.
  static PassRegistry& Global();

  Status Register(const std::string& name, Factory factory);
  bool Has(const std::string& name) const;
  StatusOr<std::unique_ptr<OptimizerPass>> Create(
      const std::string& name) const;
  // Names in registration order (so schedule generators — the ablation
  // bench — sweep passes in a meaningful cumulative order).
  std::vector<std::string> Names() const;

 private:
  std::vector<std::pair<std::string, Factory>> factories_;
};

// An ordered list of pass names. Parse validates every name against
// the registry up front, so a typo fails with InvalidArgument before
// any tracing happens.
class PassSchedule {
 public:
  // Parses a comma-separated schedule ("parallelism, prefetch" —
  // whitespace around names is ignored). An empty string is the empty
  // schedule; an empty component or unknown pass name is
  // InvalidArgument. Passes may repeat (the default schedule runs
  // parallelism twice).
  static StatusOr<PassSchedule> Parse(
      const std::string& spec,
      const PassRegistry& registry = PassRegistry::Global());

  const std::vector<std::string>& passes() const { return passes_; }
  bool empty() const { return passes_.empty(); }
  std::string ToString() const;

 private:
  std::vector<std::string> passes_;
};

// Joins pass names with `sep` — the inverse of PassSchedule::Parse for
// the default "," separator, shared by every schedule-string builder.
std::string JoinPassNames(const std::vector<std::string>& names,
                          const std::string& sep = ",");

}  // namespace plumber
