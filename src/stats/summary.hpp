// Streaming and batch summary statistics.
//
// RunningStat implements Welford's numerically stable single-pass moments
// with Chan's parallel merge, so benches can accumulate per-trial results
// without storing them.  Quantiles keeps the sample when order statistics
// (median, IQR) are needed.
#ifndef GEOGOSSIP_STATS_SUMMARY_HPP
#define GEOGOSSIP_STATS_SUMMARY_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace geogossip::stats {

/// Single-pass mean / variance / extrema accumulator (Welford).
class RunningStat {
 public:
  void push(double value) noexcept;

  /// Merges another accumulator (Chan et al. pairwise update).
  void merge(const RunningStat& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  /// Mean of the pushed values; 0 when empty.
  double mean() const noexcept;
  /// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than 2 samples.
  double standard_error() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept;

  std::string to_string() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch order statistics over a stored sample.
class Quantiles {
 public:
  Quantiles() = default;
  explicit Quantiles(std::vector<double> sample);

  void push(double value);
  std::size_t count() const noexcept { return sample_.size(); }

  /// Linear-interpolated quantile, q in [0,1].  Throws on empty sample or
  /// q outside [0,1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// Inter-quartile range.
  double iqr() const { return quantile(0.75) - quantile(0.25); }
  double min() const { return quantile(0.0); }
  double max() const { return quantile(1.0); }
  double mean() const;

  const std::vector<double>& sorted() const;

 private:
  void ensure_sorted() const;

  std::vector<double> sample_;
  mutable bool sorted_ = false;
};

/// Mean of a vector; throws on empty input.
double mean_of(const std::vector<double>& values);

/// Unbiased sample variance of a vector; throws if fewer than 2 values.
double variance_of(const std::vector<double>& values);

/// Euclidean norm.
double l2_norm(const std::vector<double>& values) noexcept;

}  // namespace geogossip::stats

#endif  // GEOGOSSIP_STATS_SUMMARY_HPP
