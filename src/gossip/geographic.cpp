#include "gossip/geographic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/telemetry.hpp"
#include "routing/greedy.hpp"
#include "support/check.hpp"
#include "support/snapshot.hpp"

namespace geogossip::gossip {

namespace {

/// Monte Carlo positions per node used to estimate Voronoi weights.
constexpr std::uint32_t kWeightSamplesPerNode = 32;
/// Rejected targets one tick tolerates before it gives up (hops still
/// paid); DESIGN.md says why this budget stays.
constexpr std::uint32_t kMaxRejections = 32;

/// One bump per protocol-level outcome; the member tallies stay the
/// protocol's own metrics, these feed the sweep-wide telemetry totals.
void count_rejection() {
  static const auto c = obs::counter("gossip.acceptance_rejections");
  obs::add(c);
}
void count_failed_route() {
  static const auto c = obs::counter("gossip.failed_routes");
  obs::add(c);
}
void count_exchange() {
  static const auto c = obs::counter("gossip.exchanges");
  obs::add(c);
}

}  // namespace

using geometry::Vec2;
using geometry::distance_sq;
using graph::NodeId;

GeographicGossip::GeographicGossip(const graph::GeometricGraph& graph,
                                   std::vector<double> x0, Rng& rng,
                                   const GeographicOptions& options)
    : ValueProtocol(graph, std::move(x0), rng), options_(options) {
  if (options_.rejection_sampling) estimate_acceptance();
}

void GeographicGossip::estimate_acceptance() {
  const std::size_t n = graph_->node_count();

  // q_hat[i] ~ P(node i is nearest to a uniform position) — proportional to
  // the area of i's Voronoi cell intersected with the region.  Sampling is
  // stratified over the spatial index's own buckets: each bucket receives
  // samples in proportion to its area (unbiased for the uniform measure,
  // lower variance than i.i.d. positions), and all samples of a bucket
  // share one precomputed candidate list read straight out of the grid's
  // CSR — amortizing the per-query ring walk the old Monte-Carlo loop paid
  // kWeightSamplesPerNode * n times.
  std::vector<double> q_hat(n, 0.0);
  const auto& grid = graph_->index();
  const auto& region = graph_->region();
  const auto& points = graph_->points();
  const int side = grid.side();
  const double cell = grid.cell_size();
  const double target_samples =
      static_cast<double>(kWeightSamplesPerNode) * static_cast<double>(n);

  // Per-bucket candidates sorted by distance to the bucket centre, so the
  // per-sample scan can stop early via the triangle inequality.
  struct Candidate {
    double center_dist;
    std::uint32_t index;
  };
  std::vector<Candidate> candidates;
  std::uint64_t total_samples = 0;
  // Largest-remainder (Bresenham) allocation over the cumulative covered
  // area: per-bucket counts stay proportional to area within +-1 sample
  // and the grand total always equals the target, so tiny edge buckets
  // are never all rounded to zero (which would both bias q_hat low for
  // their nodes and leave total_samples == 0 on fine grids).
  double covered_area = 0.0;
  std::uint64_t allocated = 0;

  for (int row = 0; row < side; ++row) {
    for (int col = 0; col < side; ++col) {
      // Skip buckets of a non-square region's grid that lie entirely
      // outside it (the grid is sized to the larger extent).
      if (region.lo().x + col * cell >= region.hi().x ||
          region.lo().y + row * cell >= region.hi().y) {
        continue;
      }
      const geometry::Rect bucket = grid.bucket_rect(row, col);
      const double x_lo = bucket.lo().x;
      const double y_lo = bucket.lo().y;
      const double x_hi = bucket.hi().x;
      const double y_hi = bucket.hi().y;
      covered_area += bucket.area();
      const auto upto = static_cast<std::uint64_t>(std::llround(
          target_samples * std::min(1.0, covered_area / region.area())));
      const std::uint64_t samples = upto - allocated;
      allocated = upto;
      if (samples == 0) continue;

      // Gather every point that can be nearest to some position in this
      // bucket: expanding Chebyshev rings, stopping once unscanned rings
      // (distance >= ring * cell from the bucket) cannot beat the best
      // covering candidate (min over candidates of the distance to the
      // bucket's farthest corner).
      candidates.clear();
      const Vec2 center{0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)};
      double cover_sq = std::numeric_limits<double>::infinity();
      for (int ring = 0;; ++ring) {
        const int row_lo = row - ring;
        const int row_hi = row + ring;
        const int col_lo = col - ring;
        const int col_hi = col + ring;
        bool scanned_any = false;
        for (int rr = std::max(0, row_lo); rr <= std::min(side - 1, row_hi);
             ++rr) {
          for (int cc = std::max(0, col_lo);
               cc <= std::min(side - 1, col_hi); ++cc) {
            const bool on_ring = rr == row_lo || rr == row_hi ||
                                 cc == col_lo || cc == col_hi;
            if (!on_ring) continue;
            scanned_any = true;
            for (const std::uint32_t idx : grid.bucket_entries(rr, cc)) {
              const Vec2 p = points[idx];
              candidates.push_back({geometry::distance(p, center), idx});
              const double dx = std::max(p.x - x_lo, x_hi - p.x);
              const double dy = std::max(p.y - y_lo, y_hi - p.y);
              cover_sq = std::min(cover_sq, dx * dx + dy * dy);
            }
          }
        }
        const double ring_min = static_cast<double>(ring) * cell;
        if (!candidates.empty() && ring_min * ring_min > cover_sq) break;
        if (!scanned_any && ring > side) break;
      }
      if (candidates.empty()) continue;  // empty deployment corner
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.center_dist < b.center_dist;
                });
      const double half_diag =
          0.5 * std::sqrt((x_hi - x_lo) * (x_hi - x_lo) +
                          (y_hi - y_lo) * (y_hi - y_lo));

      for (std::uint64_t s = 0; s < samples; ++s) {
        const Vec2 q{rng_->uniform(x_lo, x_hi), rng_->uniform(y_lo, y_hi)};
        double best_sq = std::numeric_limits<double>::infinity();
        double best_reach = std::numeric_limits<double>::infinity();
        std::uint32_t best = candidates.front().index;
        for (const Candidate& c : candidates) {
          // q lies within half_diag of the centre, so any candidate with
          // center_dist > best + half_diag cannot beat the current best.
          if (c.center_dist > best_reach) break;
          const double d_sq = distance_sq(points[c.index], q);
          if (d_sq < best_sq || (d_sq == best_sq && c.index < best)) {
            best_sq = d_sq;
            best = c.index;
            best_reach = std::sqrt(best_sq) + half_diag;
          }
        }
        q_hat[best] += 1.0;
      }
      total_samples += samples;
    }
  }
  GG_CHECK(total_samples > 0, "acceptance estimation produced no samples");
  for (double& q : q_hat) q /= static_cast<double>(total_samples);

  // Thinning target: accept node i with probability q_ref / q_hat[i], where
  // q_ref is the kReferenceQuantile order statistic of the positive
  // estimates, so nodes at or below it always accept.  Nodes never sampled
  // keep acceptance 1 (they are effectively unreachable as targets anyway).
  std::vector<double> positive;
  positive.reserve(n);
  for (const double q : q_hat) {
    if (q > 0.0) positive.push_back(q);
  }
  const auto rank = static_cast<std::size_t>(
      kReferenceQuantile * static_cast<double>(positive.size() - 1));
  std::nth_element(positive.begin(),
                   positive.begin() + static_cast<std::ptrdiff_t>(rank),
                   positive.end());
  const double q_ref = positive[rank];
  acceptance_.assign(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (q_hat[i] > 0.0) acceptance_[i] = std::min(1.0, q_ref / q_hat[i]);
  }
}

NodeId GeographicGossip::sample_target(NodeId source) {
  const auto& region = graph_->region();
  for (std::uint32_t attempt = 0; attempt <= kMaxRejections; ++attempt) {
    const Vec2 target{rng_->uniform(region.lo().x, region.hi().x),
                      rng_->uniform(region.lo().y, region.hi().y)};
    const auto route = routing::route_to_position(*graph_, source, target);
    meter_.add(sim::TxCategory::kLongRange, route.hops);
    if (!route.arrived()) {
      ++failed_routes_;
      count_failed_route();
      continue;
    }
    const NodeId candidate = route.final_node;
    // Self-targets carry no information; treat like a rejection.
    if (candidate == source) {
      ++rejections_;
      count_rejection();
      continue;
    }
    if (!options_.rejection_sampling ||
        rng_->bernoulli(acceptance_[candidate])) {
      return candidate;
    }
    ++rejections_;
    count_rejection();
  }
  return source;  // exhausted the rejection budget; caller skips the round
}

void GeographicGossip::on_tick(const sim::Tick& tick) {
  const NodeId source = tick.node;
  const NodeId target = sample_target(source);
  if (target == source) return;

  // Return route: target routes the reply to the sender's (known) position.
  const auto back = routing::route_to_node(*graph_, target, source);
  meter_.add(sim::TxCategory::kLongRange, back.hops);
  if (!back.arrived() || back.final_node != source) {
    ++failed_routes_;
    count_failed_route();
    return;  // atomic commit: no state change on a failed round trip
  }

  apply_pair_average(source, target);
  ++exchanges_;
  count_exchange();
}

void GeographicGossip::snapshot_scratch(SnapshotWriter& w) const {
  w.u64(exchanges_);
  w.u64(rejections_);
  w.u64(failed_routes_);
}

void GeographicGossip::restore_scratch(SnapshotReader& r) {
  exchanges_ = r.u64();
  rejections_ = r.u64();
  failed_routes_ = r.u64();
}

}  // namespace geogossip::gossip
