#include "exp/probes.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/affine.hpp"
#include "core/complete_graph_model.hpp"
#include "core/expected_contraction.hpp"
#include "geometry/grid.hpp"
#include "geometry/sampling.hpp"
#include "gossip/geographic.hpp"
#include "graph/connectivity.hpp"
#include "graph/geometric_graph.hpp"
#include "graph/radius.hpp"
#include "routing/route_stats.hpp"
#include "stats/chernoff.hpp"
#include "stats/histogram.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip::exp {

namespace {

ReplicateResult probe_result(std::uint64_t seed) {
  ReplicateResult result;
  result.seed = seed;
  // A probe is a measurement, not an averaging run: it always "converges".
  result.converged = true;
  result.final_error = 0.0;
  return result;
}

// ------------------------------------------------------------ E1-E3: K_n ----

/// The antipodal spike pair used by all three appendix figures, scaled to
/// the requested norm: x0[0] = +s, x0[1] = -s, zero elsewhere (zero-sum).
std::vector<double> spike_pair(std::size_t n, double magnitude) {
  GG_CHECK_ARG(n >= 2, "spike_pair: n >= 2");
  std::vector<double> x0(n, 0.0);
  x0[0] = magnitude;
  x0[1] = -magnitude;
  return x0;
}

ReplicateResult lemma1_trial(const Cell& cell, std::uint64_t seed) {
  Rng rng(seed);
  core::CompleteGraphConfig config;
  config.n = cell.n;
  config.alpha_mode = static_cast<core::AlphaMode>(
      static_cast<int>(cell.param("alpha_mode")));
  const auto t = static_cast<std::uint64_t>(cell.param("t"));
  core::CompleteGraphModel model(config, spike_pair(cell.n, 1.0), rng);
  model.run(t);

  auto result = probe_result(seed);
  const double norm_sq = model.norm_squared();
  const double bound = 2.0 * core::lemma1_bound(cell.n, t);
  result.metrics["norm_sq"] = norm_sq;
  result.metrics["bound"] = bound;
  result.metrics["ratio"] = norm_sq / bound;
  return result;
}

ReplicateResult tail_trial(const Cell& cell, std::uint64_t seed) {
  Rng rng(seed);
  core::CompleteGraphConfig config;
  config.n = cell.n;
  const auto t = static_cast<std::uint64_t>(cell.param("t"));
  const double eps = cell.param("eps");
  // Unit-norm zero-sum start.
  core::CompleteGraphModel model(
      config, spike_pair(cell.n, std::sqrt(0.5)), rng);
  model.run(t);

  auto result = probe_result(seed);
  const double rel_norm = model.relative_norm();
  result.metrics["rel_norm"] = rel_norm;
  result.metrics["exceed"] = rel_norm > eps ? 1.0 : 0.0;
  result.metrics["bound"] = core::corollary_tail_bound(cell.n, t, eps);
  return result;
}

ReplicateResult perturbed_trial(const Cell& cell, std::uint64_t seed) {
  Rng rng(seed);
  core::CompleteGraphConfig config;
  config.n = cell.n;
  config.noise_bound = cell.param("noise");
  const auto t = static_cast<std::uint64_t>(cell.param("t"));
  const double a = cell.param("a");
  core::CompleteGraphModel model(config, spike_pair(cell.n, 1.0), rng);
  model.run(t);

  auto result = probe_result(seed);
  const double norm = std::sqrt(model.norm_squared());
  const double envelope = core::lemma2_envelope(
      cell.n, t, a, std::sqrt(2.0), config.noise_bound);
  result.metrics["norm"] = norm;
  result.metrics["envelope"] = envelope;
  result.metrics["violation"] = norm > envelope ? 1.0 : 0.0;
  return result;
}

// ------------------------------------------------------------ E4 spectral ----

ReplicateResult spectral_trial(const Cell& cell, std::uint64_t seed) {
  Rng rng(seed);
  const auto family = static_cast<int>(cell.param("family"));
  std::vector<double> alphas(cell.n, 0.5);
  switch (family) {
    case 0:
      for (auto& alpha : alphas) alpha = core::draw_alpha(rng);
      break;
    case 1:
      break;  // convex 1/2
    case 2:
      std::fill(alphas.begin(), alphas.end(), 1.0 / 3.0 + 1e-9);
      break;
    default:
      throw ArgumentError("spectral_trial: bad alpha family");
  }
  const auto gram = core::expected_update_gram(alphas);
  const double lambda = core::contraction_factor_zero_sum(
      gram, static_cast<std::uint32_t>(cell.param("iterations")), rng);

  auto result = probe_result(seed);
  result.metrics["lambda"] = lambda;
  result.metrics["gap_times_n"] =
      (1.0 - lambda) * static_cast<double>(cell.n);
  result.metrics["proof_bound"] = core::lemma1_explicit_bound(cell.n);
  result.metrics["stated_bound"] =
      1.0 - 1.0 / (2.0 * static_cast<double>(cell.n));
  return result;
}

// ------------------------------------------------------------- E6 routing ----

ReplicateResult routing_trial(const Cell& cell, std::uint64_t seed) {
  Rng rng(seed);
  const auto graph = graph::GeometricGraph::sample(
      cell.n, cell.radius_multiplier, rng);
  const auto campaign = routing::measure_routes(
      graph, static_cast<std::uint64_t>(cell.param("pairs")), rng);

  auto result = probe_result(seed);
  result.metrics["mean_hops"] = campaign.hops.mean();
  result.metrics["max_hops"] = campaign.hops.max();
  result.metrics["stretch"] = campaign.stretch.mean();
  result.metrics["delivery"] = campaign.delivery_rate();
  result.metrics["prediction"] = std::sqrt(
      static_cast<double>(cell.n) / std::log(static_cast<double>(cell.n)));
  return result;
}

// -------------------------------------------------------- E7 connectivity ----

ReplicateResult connectivity_trial(const Cell& cell, std::uint64_t seed) {
  Rng rng(seed);
  const double c = cell.param("c");
  const auto points = geometry::sample_unit_square(cell.n, rng);
  const graph::GeometricGraph g(points, graph::paper_radius(cell.n, c));

  auto result = probe_result(seed);
  result.metrics["connected"] =
      graph::is_connected(g.adjacency()) ? 1.0 : 0.0;
  result.metrics["giant_fraction"] =
      static_cast<double>(graph::largest_component_size(g.adjacency())) /
      static_cast<double>(cell.n);
  result.metrics["mean_degree"] = g.adjacency().mean_degree();
  return result;
}

// ----------------------------------------------------------- E8 occupancy ----

ReplicateResult occupancy_trial(const Cell& cell, std::uint64_t seed) {
  Rng rng(seed);
  const auto squares =
      geometry::paper_subsquare_count(static_cast<double>(cell.n));
  const int side = static_cast<int>(
      std::llround(std::sqrt(static_cast<double>(squares))));
  const double expected =
      static_cast<double>(cell.n) / static_cast<double>(squares);
  const double beta = core::far_beta(expected);

  const auto points = geometry::sample_unit_square(cell.n, rng);
  std::vector<std::uint32_t> occupancy(
      static_cast<std::size_t>(side) * static_cast<std::size_t>(side), 0);
  for (const geometry::Vec2& p : points) {
    const int square = geometry::Rect::unit_square().subsquare_index(p, side);
    GG_CHECK(square >= 0, "occupancy: point outside the unit square");
    ++occupancy[static_cast<std::size_t>(square)];
  }
  double worst = 0.0;
  double alpha_lo = 1.0;
  double alpha_hi = 0.0;
  for (const auto count : occupancy) {
    worst = std::max(
        worst, std::abs(static_cast<double>(count) / expected - 1.0));
    if (count > 0) {
      const double alpha = beta / static_cast<double>(count);
      alpha_lo = std::min(alpha_lo, alpha);
      alpha_hi = std::max(alpha_hi, alpha);
    }
  }

  auto result = probe_result(seed);
  result.metrics["max_dev"] = worst;
  result.metrics["all_within"] = worst < 0.1 ? 1.0 : 0.0;
  result.metrics["alpha_lo"] = alpha_lo;
  result.metrics["alpha_hi"] = alpha_hi;
  result.metrics["chernoff_lo"] = std::max(
      0.0, 1.0 - stats::occupancy_deviation_bound(
                     expected, 0.1, static_cast<std::size_t>(squares)));
  return result;
}

// ----------------------------------------------------------- E9 rejection ----

ReplicateResult rejection_trial(const Cell& cell, std::uint64_t seed) {
  Rng rng(seed);
  const auto graph = graph::GeometricGraph::sample(
      cell.n, cell.radius_multiplier, rng);
  gossip::GeographicOptions options;
  options.rejection_sampling = cell.param("rejection") != 0.0;
  gossip::GeographicGossip protocol(
      graph, std::vector<double>(cell.n, 0.0), rng, options);

  const auto samples = static_cast<std::uint64_t>(cell.param("samples"));
  std::vector<std::uint64_t> counts(cell.n, 0);
  for (std::uint64_t s = 0; s < samples; ++s) {
    const auto src = static_cast<graph::NodeId>(rng.below(cell.n));
    const auto target = protocol.sample_target(src);
    if (target != src) ++counts[target];
  }

  auto result = probe_result(seed);
  result.metrics["tv_distance"] = stats::tv_distance_from_uniform(counts);
  result.metrics["chi2_per_df"] = stats::chi_squared_uniform(counts) /
                                  static_cast<double>(cell.n - 1);
  result.metrics["hops_per_draw"] =
      static_cast<double>(protocol.meter().total()) /
      static_cast<double>(samples);
  result.metrics["rejects_per_draw"] =
      static_cast<double>(protocol.rejections()) /
      static_cast<double>(samples);
  return result;
}

Scenario probe_scenario(std::string name, std::string description,
                        std::uint32_t replicates,
                        std::uint64_t master_seed) {
  GG_CHECK_ARG(replicates >= 1, "probe scenario: replicates >= 1");
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.description = std::move(description);
  scenario.replicates = replicates;
  scenario.master_seed = master_seed;
  return scenario;
}

Cell& add_probe_cell(Scenario& scenario, std::string label,
                     std::string probe, std::size_t n, TrialFn trial) {
  Cell& cell = scenario.add(std::move(label),
                            core::ProtocolKind::kBoydPairwise, n);
  cell.probe = std::move(probe);
  cell.trial = std::move(trial);
  return cell;
}

}  // namespace

Scenario make_e1_contraction(const std::vector<std::size_t>& sizes,
                             std::uint32_t replicates,
                             std::uint64_t master_seed) {
  GG_CHECK_ARG(!sizes.empty(), "make_e1_contraction: at least one size");
  auto scenario = probe_scenario(
      "e1-contraction",
      "Lemma 1: mean ||x(t)||^2 vs the (1-1/2n)^t bound on K_n",
      replicates, master_seed);
  constexpr std::uint64_t kHorizonMultiples[] = {2, 4, 6, 8, 10};
  std::size_t config_index = 0;
  for (const std::size_t n : sizes) {
    for (const auto mode :
         {core::AlphaMode::kPaperFixed, core::AlphaMode::kConvexHalf,
          core::AlphaMode::kEndpointThird}) {
      for (const std::uint64_t mult : kHorizonMultiples) {
        auto& cell = add_probe_cell(
            scenario,
            "n=" + std::to_string(n) + " | " +
                std::string(core::alpha_mode_name(mode)) + " | t=" +
                std::to_string(mult) + "n",
            "lemma1-contraction", n, lemma1_trial);
        cell.params["alpha_mode"] = static_cast<double>(mode);
        cell.params["t"] = static_cast<double>(mult * n);
        // Horizons of one (n, mode) share a stream: replicate k of every
        // horizon cell extends the SAME trajectory (prefix property).
        // Each horizon re-simulates its prefix (~3x the ticks of one
        // checkpointed 10n run) — accepted so every figure point stays an
        // independent cell with uniform aggregation; K_n ticks are O(1),
        // so even paper scale is sub-second.
        cell.seed_stream = config_index;
      }
      ++config_index;
    }
  }
  return scenario;
}

Scenario make_e2_tail(std::size_t n, const std::vector<double>& epsilons,
                      std::uint32_t replicates, std::uint64_t master_seed) {
  GG_CHECK_ARG(!epsilons.empty(), "make_e2_tail: at least one eps");
  auto scenario = probe_scenario(
      "e2-tail",
      "Corollary 1: empirical tail P(||x(t)|| > eps) vs the Markov bound",
      replicates, master_seed);
  constexpr std::uint64_t kHorizonMultiples[] = {1, 2, 4, 8, 12};
  for (const std::uint64_t mult : kHorizonMultiples) {
    for (const double eps : epsilons) {
      auto& cell = add_probe_cell(
          scenario,
          "t=" + std::to_string(mult) + "n | eps=" + format_fixed(eps, 2),
          "tail-bound", n, tail_trial);
      cell.params["t"] = static_cast<double>(mult * n);
      cell.params["eps"] = eps;
      // One trajectory batch serves the whole grid.  Cells sharing a t
      // re-simulate the same trajectory once per eps (and horizons re-run
      // their prefixes) — accepted for the same reason as E1 above: one
      // independent cell per figure point, and K_n ticks are O(1).
      cell.seed_stream = 0;
    }
  }
  return scenario;
}

Scenario make_e3_perturbed(std::size_t n, double a,
                           const std::vector<double>& noises,
                           std::uint32_t replicates,
                           std::uint64_t master_seed) {
  GG_CHECK_ARG(!noises.empty(), "make_e3_perturbed: at least one noise");
  auto scenario = probe_scenario(
      "e3-perturbed",
      "Lemma 2: perturbed affine averaging inside the envelope, and the "
      "noise floor",
      replicates, master_seed);
  constexpr std::uint64_t kHorizonMultiples[] = {2, 8, 32, 128};
  for (const double noise : noises) {
    for (const std::uint64_t mult : kHorizonMultiples) {
      auto& cell = add_probe_cell(
          scenario,
          "noise=" + format_sci(noise, 0) + " | t=" + std::to_string(mult) +
              "n",
          "perturbed-envelope", n, perturbed_trial);
      cell.params["noise"] = noise;
      cell.params["t"] = static_cast<double>(mult * n);
      cell.params["a"] = a;
      cell.seed_stream = 0;  // paired across noise levels and horizons
    }
  }
  return scenario;
}

Scenario make_e4_spectral(const std::vector<std::size_t>& sizes,
                          std::uint32_t iterations, std::uint32_t replicates,
                          std::uint64_t master_seed) {
  GG_CHECK_ARG(!sizes.empty(), "make_e4_spectral: at least one size");
  GG_CHECK_ARG(iterations >= 1, "make_e4_spectral: iterations >= 1");
  auto scenario = probe_scenario(
      "e4-spectral",
      "lambda_max of E[A^T A] on the zero-sum subspace vs Lemma 1's bounds",
      replicates, master_seed);
  constexpr const char* kFamilies[] = {"U(1/3,1/2) (paper)", "1/2 (convex)",
                                       "1/3+ (endpoint)"};
  for (const std::size_t n : sizes) {
    for (int family = 0; family < 3; ++family) {
      // Label carries the family only; n lives in its own column in every
      // table and sink, so consumers never parse it back out.
      auto& cell = add_probe_cell(scenario, kFamilies[family], "spectral",
                                  n, spectral_trial);
      cell.params["family"] = static_cast<double>(family);
      cell.params["iterations"] = static_cast<double>(iterations);
    }
  }
  return scenario;
}

Scenario make_e6_routing(const std::vector<std::size_t>& sizes,
                         std::uint64_t pairs, double radius_multiplier,
                         std::uint32_t replicates,
                         std::uint64_t master_seed) {
  GG_CHECK_ARG(!sizes.empty(), "make_e6_routing: at least one size");
  GG_CHECK_ARG(pairs >= 1, "make_e6_routing: pairs >= 1");
  auto scenario = probe_scenario(
      "e6-routing",
      "greedy geographic routing hops vs the sqrt(n / log n) prediction",
      replicates, master_seed);
  for (const std::size_t n : sizes) {
    auto& cell = add_probe_cell(scenario, "n=" + std::to_string(n),
                                "routing-hops", n, routing_trial);
    cell.radius_multiplier = radius_multiplier;
    cell.params["pairs"] = static_cast<double>(pairs);
  }
  return scenario;
}

Scenario make_e7_connectivity(const std::vector<std::size_t>& sizes,
                              const std::vector<double>& multipliers,
                              std::uint32_t replicates,
                              std::uint64_t master_seed) {
  GG_CHECK_ARG(!sizes.empty(), "make_e7_connectivity: at least one size");
  GG_CHECK_ARG(!multipliers.empty(),
               "make_e7_connectivity: at least one multiplier");
  auto scenario = probe_scenario(
      "e7-connectivity",
      "P(G(n, r) connected) and giant-component size across the radius "
      "threshold",
      replicates, master_seed);
  std::size_t size_index = 0;
  for (const std::size_t n : sizes) {
    for (const double c : multipliers) {
      auto& cell = add_probe_cell(
          scenario,
          "n=" + std::to_string(n) + " | c=" + format_fixed(c, 2),
          "connectivity", n, connectivity_trial);
      cell.radius_multiplier = c;
      cell.params["c"] = c;
      // Pair the c sweep on identical deployments at each n.
      cell.seed_stream = size_index;
    }
    ++size_index;
  }
  return scenario;
}

Scenario make_e8_occupancy(const std::vector<std::size_t>& sizes,
                           std::uint32_t replicates,
                           std::uint64_t master_seed) {
  GG_CHECK_ARG(!sizes.empty(), "make_e8_occupancy: at least one size");
  auto scenario = probe_scenario(
      "e8-occupancy",
      "sqrt(n)-square occupancy concentration and the implied alpha window",
      replicates, master_seed);
  for (const std::size_t n : sizes) {
    add_probe_cell(scenario, "n=" + std::to_string(n), "occupancy", n,
                   occupancy_trial);
  }
  return scenario;
}

Scenario make_e9_rejection(const std::vector<std::size_t>& sizes,
                           std::uint64_t samples, double radius_multiplier,
                           std::uint32_t replicates,
                           std::uint64_t master_seed) {
  GG_CHECK_ARG(!sizes.empty(), "make_e9_rejection: at least one size");
  GG_CHECK_ARG(samples >= 1, "make_e9_rejection: samples >= 1");
  auto scenario = probe_scenario(
      "e9-rejection",
      "sampled-target uniformity with rejection sampling on vs off",
      replicates, master_seed);
  std::size_t size_index = 0;
  for (const std::size_t n : sizes) {
    for (const bool rejection : {false, true}) {
      auto& cell = add_probe_cell(
          scenario,
          "n=" + std::to_string(n) + " | rejection " +
              (rejection ? "on" : "off"),
          "rejection-sampling", n, rejection_trial);
      cell.radius_multiplier = radius_multiplier;
      cell.params["rejection"] = rejection ? 1.0 : 0.0;
      cell.params["samples"] = static_cast<double>(samples);
      // On/off compared on the identical graph and draw sequence.
      cell.seed_stream = size_index;
    }
    ++size_index;
  }
  return scenario;
}

void register_probe_scenarios() {
  auto& registry = ScenarioRegistry::instance();

  registry.add("e1-contraction-quick", [] {
    auto s = make_e1_contraction({32, 128}, 24, 11);
    s.name = "e1-contraction-quick";
    return s;
  });
  registry.add("e1-contraction-paper", [] {
    auto s = make_e1_contraction({32, 128, 512}, 96, 11);
    s.name = "e1-contraction-paper";
    return s;
  });

  registry.add("e2-tail-quick", [] {
    auto s = make_e2_tail(64, {0.5, 0.3, 0.1}, 60, 21);
    s.name = "e2-tail-quick";
    return s;
  });
  registry.add("e2-tail-paper", [] {
    auto s = make_e2_tail(256, {0.5, 0.3, 0.1}, 600, 21);
    s.name = "e2-tail-paper";
    return s;
  });

  registry.add("e3-perturbed-quick", [] {
    auto s = make_e3_perturbed(32, 1.0, {1e-5, 1e-4}, 40, 31);
    s.name = "e3-perturbed-quick";
    return s;
  });
  registry.add("e3-perturbed-paper", [] {
    auto s = make_e3_perturbed(64, 1.0, {1e-6, 1e-5, 1e-4}, 300, 31);
    s.name = "e3-perturbed-paper";
    return s;
  });

  registry.add("e4-spectral-quick", [] {
    auto s = make_e4_spectral({8, 16, 32}, 200, 2, 41);
    s.name = "e4-spectral-quick";
    return s;
  });
  registry.add("e4-spectral-paper", [] {
    auto s = make_e4_spectral({8, 16, 32, 64, 128, 256, 512}, 800, 3, 41);
    s.name = "e4-spectral-paper";
    return s;
  });

  registry.add("e6-routing-quick", [] {
    auto s = make_e6_routing({512, 1024, 2048}, 200, 1.2, 3, 51);
    s.name = "e6-routing-quick";
    return s;
  });
  registry.add("e6-routing-paper", [] {
    auto s = make_e6_routing(
        {1024, 2048, 4096, 8192, 16384, 32768, 65536}, 2000, 1.2, 3, 51);
    s.name = "e6-routing-paper";
    return s;
  });
  registry.add("e6-hops-xl", [] {
    auto s = make_e6_routing({std::size_t{1} << 17, std::size_t{1} << 18,
                              std::size_t{1} << 19, std::size_t{1} << 20},
                             1000, 1.2, 2, 51);
    s.name = "e6-hops-xl";
    s.description =
        "XL E6 hop scaling at n = 2^17..2^20 with per-replicate memory "
        "hints (pair with --mem-budget to bound concurrent graph builds)";
    for (auto& cell : s.cells) {
      cell.mem_hint_bytes = graph::estimate_build_memory_bytes(
          cell.n, cell.radius_multiplier, /*with_routing_mirror=*/true);
    }
    return s;
  });

  registry.add("e7-connectivity-quick", [] {
    auto s = make_e7_connectivity({256, 512}, {0.6, 1.0, 1.5}, 12, 61);
    s.name = "e7-connectivity-quick";
    return s;
  });
  registry.add("e7-connectivity-paper", [] {
    auto s = make_e7_connectivity({500, 2000, 8000},
                                  {0.6, 0.8, 1.0, 1.2, 1.5, 2.0}, 60, 61);
    s.name = "e7-connectivity-paper";
    return s;
  });

  registry.add("e8-occupancy-quick", [] {
    auto s = make_e8_occupancy({1024, 4096}, 20, 71);
    s.name = "e8-occupancy-quick";
    return s;
  });
  registry.add("e8-occupancy-paper", [] {
    auto s = make_e8_occupancy(
        {1024, 4096, 16384, 65536, 262144, 1048576}, 200, 71);
    s.name = "e8-occupancy-paper";
    return s;
  });

  registry.add("e9-rejection-quick", [] {
    auto s = make_e9_rejection({512}, 20000, 1.2, 2, 81);
    s.name = "e9-rejection-quick";
    return s;
  });
  registry.add("e9-rejection-paper", [] {
    auto s = make_e9_rejection({1024, 4096}, 200000, 1.2, 3, 81);
    s.name = "e9-rejection-paper";
    return s;
  });
}

}  // namespace geogossip::exp
