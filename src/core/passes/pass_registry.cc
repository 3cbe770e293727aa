#include "src/core/passes/pass_registry.h"

#include "src/core/passes/builtin_passes.h"

namespace plumber {

PassRegistry& PassRegistry::Global() {
  static PassRegistry* registry = [] {
    auto* r = new PassRegistry();
    (void)r->Register("parallelism",
                      [] { return std::make_unique<ParallelismPass>(); });
    (void)r->Register("prefetch",
                      [] { return std::make_unique<PrefetchPass>(); });
    (void)r->Register("cache", [] { return std::make_unique<CachePass>(); });
    (void)r->Register("shard_sources",
                      [] { return std::make_unique<ShardSourcesPass>(); });
    return r;
  }();
  return *registry;
}

Status PassRegistry::Register(const std::string& name, Factory factory) {
  if (name.empty()) return InvalidArgumentError("empty pass name");
  if (name.find(',') != std::string::npos ||
      name.find(' ') != std::string::npos) {
    return InvalidArgumentError("pass name must be schedule-safe: " + name);
  }
  if (Has(name)) return AlreadyExistsError("pass already registered: " + name);
  factories_.emplace_back(name, std::move(factory));
  return OkStatus();
}

bool PassRegistry::Has(const std::string& name) const {
  for (const auto& [registered, factory] : factories_) {
    if (registered == name) return true;
  }
  return false;
}

StatusOr<std::unique_ptr<OptimizerPass>> PassRegistry::Create(
    const std::string& name) const {
  for (const auto& [registered, factory] : factories_) {
    if (registered == name) return factory();
  }
  return NotFoundError("no such optimizer pass: " + name);
}

std::vector<std::string> PassRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

StatusOr<PassSchedule> PassSchedule::Parse(const std::string& spec,
                                           const PassRegistry& registry) {
  PassSchedule schedule;
  if (spec.empty()) return schedule;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    std::string name = spec.substr(start, comma - start);
    // Trim surrounding whitespace.
    const size_t first = name.find_first_not_of(" \t");
    if (first == std::string::npos) {
      return InvalidArgumentError("empty pass name in schedule: \"" + spec +
                                  "\"");
    }
    name = name.substr(first, name.find_last_not_of(" \t") - first + 1);
    if (!registry.Has(name)) {
      return InvalidArgumentError("unknown optimizer pass \"" + name +
                                  "\" in schedule (known: " +
                                  JoinPassNames(registry.Names(), ", ") +
                                  ")");
    }
    schedule.passes_.push_back(std::move(name));
    start = comma + 1;
  }
  return schedule;
}

std::string PassSchedule::ToString() const { return JoinPassNames(passes_); }

std::string JoinPassNames(const std::vector<std::string>& names,
                          const std::string& sep) {
  std::string out;
  for (const std::string& name : names) {
    out += out.empty() ? name : sep + name;
  }
  return out;
}

}  // namespace plumber
