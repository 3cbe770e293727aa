// Streaming statistics, quantiles, and log-scale histograms.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace plumber {

// Welford-style running mean/variance with min/max.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * count_; }

  // Half-width of the normal-approximation 95% confidence interval.
  double ConfidenceInterval95() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exact quantile over a retained sample vector (fine for <= millions).
class QuantileSketch {
 public:
  void Add(double x) { values_.push_back(x); sorted_ = false; }
  // q in [0, 1].
  double Quantile(double q) const;
  size_t size() const { return values_.size(); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void EnsureSorted() const;
};

// Histogram with logarithmically spaced bucket boundaries; used for
// latency distributions (Fig. 3 style CDFs).
class LogHistogram {
 public:
  // Buckets span [min_value, max_value] with `buckets_per_decade`
  // buckets per power of ten; values outside are clamped.
  LogHistogram(double min_value, double max_value, int buckets_per_decade);

  void Add(double x);
  int64_t TotalCount() const { return total_; }

  struct Bucket {
    double lower;
    double upper;
    int64_t count;
  };
  std::vector<Bucket> NonEmptyBuckets() const;

  // CDF evaluated at x: fraction of samples <= x (bucket-granular).
  double Cdf(double x) const;

  std::string ToString() const;

 private:
  double min_value_;
  double log_min_;
  double bucket_width_;  // in log10 space
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
  size_t BucketIndex(double x) const;
};

}  // namespace plumber
