// Direct simulators for the appendix models (Lemma 1, Corollary 1/2,
// Lemma 2): asynchronous mirrored-affine gossip on the complete graph K_n.
//
// These are the *analysis* objects, not the sensor-network protocol — the
// paper reduces the square-sum dynamics of the hierarchical protocol to
// exactly this chain, so validating the contraction rate here validates the
// engine of the whole construction (experiments E1-E3).
#ifndef GEOGOSSIP_CORE_COMPLETE_GRAPH_MODEL_HPP
#define GEOGOSSIP_CORE_COMPLETE_GRAPH_MODEL_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace geogossip::core {

/// How per-node coefficients alpha_i are chosen.  The values are fixed: E1
/// writes a mode's value into its param_alpha_mode CSV column.
enum class AlphaMode {
  kPaperFixed = 0,     ///< drawn once per node from U(1/3, 1/2) — Lemma 1
  kConvexHalf = 2,     ///< alpha = 1/2 exactly — classical convex gossip
  kEndpointThird = 3,  ///< alpha = 1/3 + tiny — worst coefficient in range
};

std::string_view alpha_mode_name(AlphaMode mode) noexcept;

struct CompleteGraphConfig {
  std::size_t n = 0;
  AlphaMode alpha_mode = AlphaMode::kPaperFixed;
  /// Per-step additive perturbation magnitude bound (Lemma 2's epsilon);
  /// 0 disables the perturbed update.
  double noise_bound = 0.0;
};

/// Asynchronous K_n model.  One step = one clock tick at a uniform node i,
/// which picks j != i uniformly and applies the mirrored affine update; with
/// noise enabled, +nu(t) is added at i and -nu(t) at j (Lemma 2's rule),
/// nu(t) drawn uniformly from [-noise_bound, noise_bound].
class CompleteGraphModel {
 public:
  CompleteGraphModel(const CompleteGraphConfig& config,
                     std::vector<double> x0, Rng& rng);

  void step();
  void run(std::uint64_t steps);

  std::span<const double> values() const noexcept { return x_; }
  double norm_squared() const noexcept;

  /// ||x(t)|| / ||x(0)||.
  double relative_norm() const;

  const std::vector<double>& alphas() const noexcept { return alpha_; }

 private:
  CompleteGraphConfig config_;
  std::vector<double> x_;
  std::vector<double> alpha_;
  Rng* rng_;
  double initial_norm_sq_ = 0.0;
};

/// Lemma 1 bound: E||x(t)||^2 < (1 - 1/(2n))^t ||x(0)||^2.
double lemma1_bound(std::size_t n, std::uint64_t t);

/// Corollary 1/2: P(||x(t)|| > eps ||x(0)||) <= eps^-2 (1 - 1/(2n))^t.
double corollary_tail_bound(std::size_t n, std::uint64_t t, double epsilon);

/// Lemma 2 envelope: n^(a/2) ((1-1/(2n))^(t/2) ||y0|| + 8 sqrt(2) n^1.5 eps).
double lemma2_envelope(std::size_t n, std::uint64_t t, double a,
                       double y0_norm, double noise_bound);

/// Failure probability of the Lemma 2 envelope: 5 / n^a.
double lemma2_failure_probability(std::size_t n, double a);

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_COMPLETE_GRAPH_MODEL_HPP
