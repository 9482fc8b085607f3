// Measurement probes: Scenario builders for the figures that do not run a
// gossip protocol (E1-E4 appendix-model validations, E6 routing hops, E7
// connectivity, E8 occupancy concentration, E9 rejection sampling).
//
// Each builder fills the cells with a TrialFn that is a pure function of
// (cell, seed) and reports through ReplicateResult::metrics, so all eight
// figures run on the same thread-parallel Runner / seed-stream / sink
// machinery as the protocol sweeps (E5/E10/E11).  Horizon families (E1-E3)
// pin a shared seed_stream per configuration: replicate k of every horizon
// cell then extends the SAME trajectory, and paired columns (eps grids,
// noise levels, rejection on/off) isolate the knob from sampling noise.
#ifndef GEOGOSSIP_EXP_PROBES_HPP
#define GEOGOSSIP_EXP_PROBES_HPP

#include <cstdint>
#include <vector>

#include "exp/scenario.hpp"

namespace geogossip::exp {

/// E1: Lemma 1 contraction on K_n.  One cell per (n, alpha mode, horizon);
/// horizons are {2,4,6,8,10} * n ticks.  Metrics: norm_sq, bound, ratio.
Scenario make_e1_contraction(const std::vector<std::size_t>& sizes,
                             std::uint32_t replicates,
                             std::uint64_t master_seed);

/// E2: Corollary 1 tail bound on K_n.  One cell per (horizon, eps) with
/// horizons {1,2,4,8,12} * n; every cell shares seed stream 0, so the eps
/// grid is evaluated on identical trajectories (the original driver's
/// one-batch-serves-every-eps structure).  Metrics: rel_norm, exceed,
/// bound.
Scenario make_e2_tail(std::size_t n, const std::vector<double>& epsilons,
                      std::uint32_t replicates, std::uint64_t master_seed);

/// E3: Lemma 2 perturbed-averaging envelope on K_n.  One cell per
/// (noise, horizon) with horizons {2,8,32,128} * n, paired across noise
/// levels.  Metrics: norm, envelope, violation.
Scenario make_e3_perturbed(std::size_t n, double a,
                           const std::vector<double>& noises,
                           std::uint32_t replicates,
                           std::uint64_t master_seed);

/// E4: lambda_max(P E[A^T A] P) vs Lemma 1's bounds.  One cell per
/// (n, alpha family).  Metrics: lambda, gap_times_n, proof_bound,
/// stated_bound.
Scenario make_e4_spectral(const std::vector<std::size_t>& sizes,
                          std::uint32_t iterations, std::uint32_t replicates,
                          std::uint64_t master_seed);

/// E6: greedy geographic routing hop scaling.  One cell per n; each
/// replicate samples a fresh G(n, r) and routes `pairs` random pairs.
/// Metrics: mean_hops, max_hops, stretch, delivery, prediction.
Scenario make_e6_routing(const std::vector<std::size_t>& sizes,
                         std::uint64_t pairs, double radius_multiplier,
                         std::uint32_t replicates, std::uint64_t master_seed);

/// E7: Gupta-Kumar connectivity threshold.  One cell per (n, c) with
/// r = c sqrt(log n / n), paired across c at fixed n.  Metrics: connected,
/// giant_fraction, mean_degree.
Scenario make_e7_connectivity(const std::vector<std::size_t>& sizes,
                              const std::vector<double>& multipliers,
                              std::uint32_t replicates,
                              std::uint64_t master_seed);

/// E8: sqrt(n)-square occupancy concentration.  One cell per n.  Metrics:
/// max_dev, all_within, alpha_lo, alpha_hi, chernoff_lo.
Scenario make_e8_occupancy(const std::vector<std::size_t>& sizes,
                           std::uint32_t replicates,
                           std::uint64_t master_seed);

/// E9: target-node uniformity of geographic gossip, rejection sampling on
/// vs off, paired on the same graph per n.  Metrics: tv_distance,
/// chi2_per_df, hops_per_draw, rejects_per_draw.
Scenario make_e9_rejection(const std::vector<std::size_t>& sizes,
                           std::uint64_t samples, double radius_multiplier,
                           std::uint32_t replicates,
                           std::uint64_t master_seed);

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_PROBES_HPP
