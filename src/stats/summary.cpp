#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/check.hpp"

namespace geogossip::stats {

void RunningStat::push(double value) noexcept {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }

double RunningStat::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStat::standard_error() const noexcept {
  return count_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(count_));
}

double RunningStat::min() const noexcept { return count_ == 0 ? 0.0 : min_; }
double RunningStat::max() const noexcept { return count_ == 0 ? 0.0 : max_; }

double RunningStat::sum() const noexcept {
  return mean_ * static_cast<double>(count_);
}

std::string RunningStat::to_string() const {
  std::ostringstream os;
  os << "n=" << count_ << " mean=" << mean() << " sd=" << stddev()
     << " min=" << min() << " max=" << max();
  return os.str();
}

Quantiles::Quantiles(std::vector<double> sample) : sample_(std::move(sample)) {}

void Quantiles::push(double value) {
  sample_.push_back(value);
  sorted_ = false;
}

void Quantiles::ensure_sorted() const {
  if (sorted_) return;
  auto& mut = const_cast<std::vector<double>&>(sample_);
  std::sort(mut.begin(), mut.end());
  sorted_ = true;
}

double Quantiles::quantile(double q) const {
  GG_CHECK_ARG(!sample_.empty(), "quantile of empty sample");
  GG_CHECK_ARG(q >= 0.0 && q <= 1.0, "quantile requires q in [0,1]");
  ensure_sorted();
  if (sample_.size() == 1) return sample_.front();
  const double position = q * static_cast<double>(sample_.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const double frac = position - static_cast<double>(lower);
  if (lower + 1 >= sample_.size()) return sample_.back();
  return sample_[lower] * (1.0 - frac) + sample_[lower + 1] * frac;
}

double Quantiles::mean() const {
  GG_CHECK_ARG(!sample_.empty(), "mean of empty sample");
  double total = 0.0;
  for (const double v : sample_) total += v;
  return total / static_cast<double>(sample_.size());
}

const std::vector<double>& Quantiles::sorted() const {
  ensure_sorted();
  return sample_;
}

double mean_of(const std::vector<double>& values) {
  GG_CHECK_ARG(!values.empty(), "mean_of: empty input");
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double variance_of(const std::vector<double>& values) {
  GG_CHECK_ARG(values.size() >= 2, "variance_of: need at least 2 values");
  const double m = mean_of(values);
  double accum = 0.0;
  for (const double v : values) accum += (v - m) * (v - m);
  return accum / static_cast<double>(values.size() - 1);
}

double l2_norm(const std::vector<double>& values) noexcept {
  double accum = 0.0;
  for (const double v : values) accum += v * v;
  return std::sqrt(accum);
}

}  // namespace geogossip::stats
