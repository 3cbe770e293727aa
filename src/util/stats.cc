#include "src/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace plumber {

void RunningStat::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / count_;
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const int64_t n = count_ + other.count_;
  const double delta = other.mean_ - mean_;
  const double mean = mean_ + delta * other.count_ / n;
  m2_ += other.m2_ + delta * delta * count_ * other.count_ / n;
  mean_ = mean;
  count_ = n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const {
  return count_ > 1 ? m2_ / (count_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::ConfidenceInterval95() const {
  if (count_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

void QuantileSketch::EnsureSorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double QuantileSketch::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * (values_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - lo;
  return values_[lo] * (1 - frac) + values_[hi] * frac;
}

LogHistogram::LogHistogram(double min_value, double max_value,
                           int buckets_per_decade)
    : min_value_(min_value),
      log_min_(std::log10(min_value)),
      bucket_width_(1.0 / buckets_per_decade) {
  assert(min_value > 0 && max_value > min_value && buckets_per_decade > 0);
  const double decades = std::log10(max_value) - log_min_;
  counts_.assign(static_cast<size_t>(decades * buckets_per_decade) + 2, 0);
}

size_t LogHistogram::BucketIndex(double x) const {
  if (x <= min_value_) return 0;
  const double pos = (std::log10(x) - log_min_) / bucket_width_;
  const size_t idx = static_cast<size_t>(pos) + 1;
  return std::min(idx, counts_.size() - 1);
}

void LogHistogram::Add(double x) {
  ++counts_[BucketIndex(x)];
  ++total_;
}

std::vector<LogHistogram::Bucket> LogHistogram::NonEmptyBuckets() const {
  std::vector<Bucket> out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double lower =
        i == 0 ? 0 : std::pow(10, log_min_ + (i - 1) * bucket_width_);
    const double upper = std::pow(10, log_min_ + i * bucket_width_);
    out.push_back({lower, upper, counts_[i]});
  }
  return out;
}

double LogHistogram::Cdf(double x) const {
  if (total_ == 0) return 0.0;
  const size_t idx = BucketIndex(x);
  int64_t below = 0;
  for (size_t i = 0; i <= idx; ++i) below += counts_[i];
  return static_cast<double>(below) / total_;
}

std::string LogHistogram::ToString() const {
  std::ostringstream os;
  for (const auto& b : NonEmptyBuckets()) {
    os << "[" << b.lower << ", " << b.upper << "): " << b.count << "\n";
  }
  return os.str();
}

}  // namespace plumber
