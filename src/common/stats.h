// Small statistics helpers used by benches and metric reporting.

#ifndef OOBP_SRC_COMMON_STATS_H_
#define OOBP_SRC_COMMON_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace oobp {

// Online accumulator for mean / stddev / min / max (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (count_ == 1 || x < min_) {
      min_ = x;
    }
    if (count_ == 1 || x > max_) {
      max_ = x;
    }
  }

  size_t count() const { return count_; }
  double mean() const { return mean_; }
  double min() const { return min_; }
  double max() const { return max_; }

  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  // Standard error of the mean, as reported by the paper for throughput.
  double stderr_mean() const {
    return count_ > 0 ? stddev() / std::sqrt(static_cast<double>(count_)) : 0.0;
  }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

inline double Mean(const std::vector<double>& xs) {
  OOBP_CHECK(!xs.empty());
  double s = 0.0;
  for (double x : xs) {
    s += x;
  }
  return s / static_cast<double>(xs.size());
}

// Exact order-statistic (nearest-rank) percentile: the smallest element of
// `sorted` (ascending) whose rank r satisfies r >= ceil(p/100 * n). The
// result is always an element of the sample — no interpolation — so tail
// percentiles (p99 of latencies) never invent values between two samples
// and stay bit-deterministic. p = 0 returns the minimum, p = 100 the
// maximum.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  OOBP_CHECK(!sorted.empty());
  OOBP_CHECK_GE(p, 0.0);
  OOBP_CHECK_LE(p, 100.0);
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > n) {
    rank = n;
  }
  return sorted[rank - 1];
}

// Same, over an unsorted sample (sorts a copy).
inline double Percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return PercentileSorted(xs, p);
}

// Counts of small non-negative integer values (batch sizes, queue depths):
// one bucket per value in [0, max_value], with out-of-range adds clamped
// into the edge buckets.
class IntHistogram {
 public:
  explicit IntHistogram(int max_value) : counts_(max_value + 1, 0) {
    OOBP_CHECK_GE(max_value, 0);
  }

  void Add(int value) {
    const int v = std::clamp(value, 0, max_value());
    ++counts_[static_cast<size_t>(v)];
    ++total_;
    sum_ += v;
  }

  int max_value() const { return static_cast<int>(counts_.size()) - 1; }
  int64_t count(int value) const {
    OOBP_CHECK_GE(value, 0);
    OOBP_CHECK_LE(value, max_value());
    return counts_[static_cast<size_t>(value)];
  }
  int64_t total() const { return total_; }
  // Mean of the clamped values.
  double mean() const {
    return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0;
  }

 private:
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
  double sum_ = 0.0;
};


}  // namespace oobp

#endif  // OOBP_SRC_COMMON_STATS_H_
