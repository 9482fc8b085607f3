#include "sim/deviation_tracker.hpp"

#include "support/snapshot.hpp"

namespace geogossip::sim {

void DeviationTracker::reset(std::span<const double> values) {
  n_ = values.size();
  NeumaierSum mean_sum;
  for (const double v : values) mean_sum.add(v);
  shift_ = n_ == 0 ? 0.0 : mean_sum.value() / static_cast<double>(n_);
  sum_dev_.reset();
  sum_dev_sq_.reset();
  for (const double v : values) {
    const double d = v - shift_;
    sum_dev_.add(d);
    sum_dev_sq_.add(d * d);
  }
}

void DeviationTracker::apply_average(
    std::span<double> values,
    std::span<const std::uint32_t> indices) noexcept {
  if (indices.empty()) return;
  double sum = 0.0;
  for (const auto i : indices) sum += values[i];
  const double average = sum / static_cast<double>(indices.size());
  const double d_avg = average - shift_;
  double removed = 0.0;
  for (const auto i : indices) {
    const double d = values[i] - shift_;
    removed += d * d;
    values[i] = average;
  }
  sum_dev_sq_.add(static_cast<double>(indices.size()) * d_avg * d_avg -
                  removed);
}

double DeviationTracker::sum() const noexcept {
  return shift_ * static_cast<double>(n_) + sum_dev_.value();
}

void DeviationTracker::save(SnapshotWriter& w) const {
  w.u64(n_);
  w.f64(shift_);
  w.f64(sum_dev_.raw_sum());
  w.f64(sum_dev_.raw_compensation());
  w.f64(sum_dev_sq_.raw_sum());
  w.f64(sum_dev_sq_.raw_compensation());
}

void DeviationTracker::restore(SnapshotReader& r) {
  n_ = static_cast<std::size_t>(r.u64());
  shift_ = r.f64();
  const double s1 = r.f64();
  const double c1 = r.f64();
  sum_dev_.restore(s1, c1);
  const double s2 = r.f64();
  const double c2 = r.f64();
  sum_dev_sq_.restore(s2, c2);
}

}  // namespace geogossip::sim
