#include "src/pipeline/udf.h"

#include <algorithm>
#include <set>

#include "src/util/buffer_pool.h"
#include "src/util/busy_work.h"
#include "src/util/rng.h"
#include "src/util/parallel_for.h"

namespace plumber {

Status UdfRegistry::Register(UdfSpec spec) {
  if (spec.name.empty()) return InvalidArgumentError("udf name empty");
  if (udfs_.count(spec.name)) {
    return AlreadyExistsError("duplicate udf: " + spec.name);
  }
  udfs_.emplace(spec.name, std::move(spec));
  return OkStatus();
}

const UdfSpec* UdfRegistry::Find(const std::string& name) const {
  auto it = udfs_.find(name);
  return it == udfs_.end() ? nullptr : &it->second;
}

bool UdfRegistry::IsTransitivelyRandom(const std::string& name) const {
  std::set<std::string> visited;
  std::vector<std::string> stack{name};
  while (!stack.empty()) {
    const std::string current = stack.back();
    stack.pop_back();
    if (!visited.insert(current).second) continue;
    const UdfSpec* spec = Find(current);
    if (spec == nullptr) continue;
    if (spec->accesses_random_seed) return true;
    for (const auto& callee : spec->calls) stack.push_back(callee);
  }
  return false;
}

std::vector<std::string> UdfRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(udfs_.size());
  for (const auto& [name, spec] : udfs_) out.push_back(name);
  return out;
}

namespace {

double TotalCostNs(const UdfSpec& spec, size_t input_bytes, double cpu_scale) {
  return cpu_scale *
         (spec.cost_ns_per_element + spec.cost_ns_per_byte * input_bytes);
}

// Costs below this spin rather than wait: a timed wait cannot hit
// sub-100us targets precisely (timer slack), and costs that small
// cannot meaningfully oversubscribe a host either.
constexpr double kTimedWorkMinNs = 100e3;

void ExecuteCostNs(double ns, uint64_t seed, bool timed) {
  if (timed) {
    OccupyWallNanos(static_cast<int64_t>(ns), seed);
  } else {
    BurnCpuNanos(static_cast<int64_t>(ns), seed);
  }
}

void ExecuteWithInternalParallelism(const UdfSpec& spec, double total_ns,
                                    uint64_t seed) {
  // Timed-vs-spin is decided on the call's total cost, not the
  // per-thread slice: an internally-parallel UDF must not fall back to
  // burning k physical cores just because each slice is small.
  const bool timed = total_ns >= kTimedWorkMinNs;
  const int k = std::max(1, spec.internal_parallelism);
  if (k == 1) {
    ExecuteCostNs(total_ns, seed, timed);
    return;
  }
  // The logical call's work is split across k threads; wall time shrinks
  // but total CPU consumed stays (roughly) the same, reproducing the
  // "1 parallelism uses nearly 3 cores" hazard.
  const double per_thread = total_ns / k;
  ParallelFor(k, k, [&](int i) {
    ExecuteCostNs(per_thread, SplitMix64(seed ^ static_cast<uint64_t>(i)),
                  timed);
  });
}

}  // namespace

Element ExecuteMapUdf(const UdfSpec& spec, Element&& input, double cpu_scale,
                      uint64_t seed) {
  const size_t input_bytes = input.TotalBytes();
  ExecuteWithInternalParallelism(
      spec, TotalCostNs(spec, input_bytes, cpu_scale), seed);
  const size_t output_bytes =
      static_cast<size_t>(std::max(0.0, input_bytes * spec.size_ratio));
  Element out;
  out.sequence = input.sequence;
  // TransformBuffer fully overwrites [0, output_bytes), so a recycled
  // buffer's stale contents are unobservable.
  Buffer merged = BufferPool::Get()->Acquire(output_bytes);
  if (input.components.size() == 1) {
    TransformBuffer(input.components[0], output_bytes, seed, &merged);
  } else {
    // Multi-component input (e.g. post-batch): concatenate then
    // transform, producing a single component.
    Buffer concat;
    concat.reserve(input_bytes);
    for (const auto& c : input.components) {
      concat.insert(concat.end(), c.begin(), c.end());
    }
    TransformBuffer(concat, output_bytes, seed, &merged);
    BufferPool::Get()->Release(std::move(concat));
  }
  out.components.push_back(std::move(merged));
  BufferPool::Get()->ReleaseElement(std::move(input));
  return out;
}

bool ExecuteFilterUdf(const UdfSpec& spec, const Element& input,
                      double cpu_scale, uint64_t seed) {
  ExecuteWithInternalParallelism(
      spec, TotalCostNs(spec, input.TotalBytes(), cpu_scale), seed);
  if (spec.keep_fraction >= 1.0) return true;
  const uint64_t h = SplitMix64(seed ^ (input.sequence * 0x9e3779b97f4a7c15ULL));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < spec.keep_fraction;
}

}  // namespace plumber
