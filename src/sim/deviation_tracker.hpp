// Incrementally maintained deviation norm ||x - mean(x) * 1||^2.
//
// run_to_epsilon's convergence criterion needs the deviation norm after
// every state change; recomputing it is O(n), which historically forced
// checkpoints every n ticks (an up-to-n-tick overestimate of convergence
// time) and an O(n^2)-per-run check bill.  DeviationTracker makes the norm
// an O(1) read: it tracks S1 = sum(x_i - shift) and S2 = sum((x_i -
// shift)^2) under single-element updates, with
//
//     ||x - mean||^2 = S2 - S1^2 / n.
//
// `shift` is frozen at the mean of the snapshot given to reset().  Gossip
// updates conserve the sum, so S1 stays ~0 forever and the S2 - S1^2/n
// subtraction never cancels catastrophically (the classic failure of
// unshifted sum/sum-of-squares tracking as x converges to a non-zero
// mean).  Both sums use Neumaier compensation; callers additionally
// reset() on a fixed cadence to bound any residual drift.
#ifndef GEOGOSSIP_SIM_DEVIATION_TRACKER_HPP
#define GEOGOSSIP_SIM_DEVIATION_TRACKER_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "support/neumaier.hpp"

namespace geogossip {
class SnapshotReader;
class SnapshotWriter;
}  // namespace geogossip

namespace geogossip::sim {

class DeviationTracker {
 public:
  /// Exact recomputation from a full snapshot; also re-centres the shift at
  /// the snapshot mean.  O(n).
  void reset(std::span<const double> values);

  /// One element changed from `old_value` to `new_value`.  O(1).
  void update(double old_value, double new_value) noexcept {
    const double d_old = old_value - shift_;
    const double d_new = new_value - shift_;
    sum_dev_.add(d_new - d_old);
    sum_dev_sq_.add(-d_old * d_old);
    sum_dev_sq_.add(d_new * d_new);
  }

  /// Fast path for updates that conserve the value sum exactly in exact
  /// arithmetic (pair averages, mirrored affine jumps, k-node averages):
  /// S1's true change is a single rounding residue, so it is left
  /// untouched (the periodic exact refresh absorbs it) and S2 takes one
  /// compensated add.  One Neumaier add instead of six for a pair.
  void update_conserving_pair(double old_a, double old_b, double new_a,
                              double new_b) noexcept {
    const double da = old_a - shift_;
    const double db = old_b - shift_;
    const double na = new_a - shift_;
    const double nb = new_b - shift_;
    sum_dev_sq_.add((na * na - da * da) + (nb * nb - db * db));
  }

  /// Bulk sum-conserving update: sets values[i] for every listed i to the
  /// naive mean of those entries and takes one compensated S2 add for the
  /// whole group, leaving S1 alone as update_conserving_pair does.  One
  /// Neumaier add per group instead of three per element (update()).
  /// Indices must be distinct; an empty list is a no-op.
  void apply_average(std::span<double> values,
                     std::span<const std::uint32_t> indices) noexcept;

  /// ||x - mean(x)||^2, clamped at 0 against FP residue.
  double deviation_sq() const noexcept {
    if (n_ == 0) return 0.0;
    const double s1 = sum_dev_.value();
    const double raw =
        sum_dev_sq_.value() - s1 * s1 / static_cast<double>(n_);
    // Clamp only the tiny negative FP residue; a diverged protocol's NaN/inf
    // must propagate (std::max would silently swallow NaN into 0, reporting
    // a diverged run as converged).
    if (std::isnan(raw)) return raw;
    return std::max(0.0, raw);
  }

  /// Tracked sum(x) (diagnostics; exact conservation checks should still
  /// recompute from the values).
  double sum() const noexcept;

  std::size_t size() const noexcept { return n_; }

  /// Serializes n, the frozen shift and both compensated sums (raw sum +
  /// compensation each) so a restored tracker continues the exact rounding
  /// trajectory of the snapshotted one — reset()-ing from the restored
  /// values instead would erase accumulated residue and break bit-identical
  /// resume.
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

 private:
  std::size_t n_ = 0;
  double shift_ = 0.0;
  NeumaierSum sum_dev_;     ///< S1 = sum(x_i - shift)
  NeumaierSum sum_dev_sq_;  ///< S2 = sum((x_i - shift)^2)
};

}  // namespace geogossip::sim

#endif  // GEOGOSSIP_SIM_DEVIATION_TRACKER_HPP
