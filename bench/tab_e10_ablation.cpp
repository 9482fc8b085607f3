// E10: ablations over the design choices DESIGN.md calls out.
//
//   (a) Affine gain: paper-literal beta = (2/5)E# vs harmonic-of-actual vs
//       convex representative averaging (beta = 1/2).  Isolates the paper's
//       core claim — non-convex affine combinations accelerate averaging by
//       Theta(occupancy) — and shows the literal gain's fragility to
//       occupancy fluctuations at simulable scale.
//   (b) Hierarchy depth: one-level (§3) vs full recursion, under both leaf
//       cost models (grg-mixing and the paper's conservative quadratic).
//   (c) Control overhead: share of Activate/Deactivate traffic, on/off.
//   (d) The literal paper schedule vs the practical schedule (reported).
//
// Every ablation row is one cell of a Scenario executed by the parallel
// exp::Runner.  All rows pin seed_stream = 0, so replicate k samples the
// IDENTICAL (graph, field) in every row — a paired comparison that
// isolates the design choice from graph-sampling noise, matching the
// original driver's shared per-trial seeding.
#include <iostream>
#include <vector>

#include "core/convergence.hpp"
#include "core/schedule.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"

namespace gg = geogossip;
using gg::core::BetaMode;
using gg::core::LeafCostModel;
using gg::core::MultilevelConfig;
using gg::core::ProtocolKind;

static int run(int argc, char** argv) {
  std::uint64_t n = 16384;
  std::uint64_t master_seed = 5;
  double eps = 1e-3;
  double radius_multiplier = 1.2;

  gg::exp::SweepCli cli("tab_e10_ablation", "E10: design-choice ablations");
  cli.parser().add_flag("n", &n, "deployment size");
  cli.parser().add_flag("seed", &master_seed, "master seed");
  cli.parser().add_flag("eps", &eps, "accuracy target");
  cli.parser().add_flag("radius-mult", &radius_multiplier,
                        "radius multiplier");
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  std::cout << "=== E10: ablations at n=" << gg::format_count(n)
            << ", eps=" << eps << " ===\n\n";

  gg::exp::Scenario scenario;
  scenario.name = "e10-ablation";
  scenario.description = "design-choice ablations for the affine protocols";
  // Replicates per row; the harness --replicates flag overrides this.
  scenario.replicates = 3;
  scenario.master_seed = master_seed;

  const auto add_row = [&](const std::string& label, ProtocolKind kind,
                           const MultilevelConfig& config) {
    auto& cell = scenario.add(label, kind, n);
    cell.radius_multiplier = radius_multiplier;
    cell.field = gg::exp::CellField::kGaussian;
    cell.options.eps = eps;
    cell.options.multilevel = config;
    cell.seed_stream = 0;  // paired draws across all ablation rows
  };

  MultilevelConfig base;
  add_row("multi | harmonic beta (default)",
          ProtocolKind::kAffineMultilevel, base);

  MultilevelConfig expected = base;
  expected.beta_mode = BetaMode::kExpected;
  expected.max_top_rounds = 60000;  // divergence is a valid outcome
  add_row("multi | paper-literal beta=(2/5)E#",
          ProtocolKind::kAffineMultilevel, expected);

  MultilevelConfig convex = base;
  convex.beta_mode = BetaMode::kConvexRep;
  convex.max_top_rounds = 60000;
  add_row("multi | convex rep averaging (1/2)",
          ProtocolKind::kAffineMultilevel, convex);

  add_row("one-level (§3) | grg-mixing leaves",
          ProtocolKind::kAffineOneLevel, base);

  // At one level the squares hold ~sqrt(n) sensors, so occupancies DO
  // concentrate (relative fluctuation n^-1/4) and the paper-literal gain
  // is stable — the concentration premise in action.
  MultilevelConfig one_level_expected = base;
  one_level_expected.beta_mode = BetaMode::kExpected;
  add_row("one-level (§3) | paper-literal beta",
          ProtocolKind::kAffineOneLevel, one_level_expected);

  MultilevelConfig one_level_quad = base;
  one_level_quad.leaf_cost = LeafCostModel::kQuadratic;
  add_row("one-level (§3) | quadratic leaves",
          ProtocolKind::kAffineOneLevel, one_level_quad);

  MultilevelConfig multi_quad = base;
  multi_quad.leaf_cost = LeafCostModel::kQuadratic;
  add_row("multi | quadratic leaves", ProtocolKind::kAffineMultilevel,
          multi_quad);

  MultilevelConfig no_control = base;
  no_control.charge_control = false;
  add_row("multi | control traffic uncharged",
          ProtocolKind::kAffineMultilevel, no_control);

  MultilevelConfig noisy = base;
  noisy.leaf_noise = 1e-7;
  add_row("multi | leaf noise 1e-7 (Lemma 2 in vivo)",
          ProtocolKind::kAffineMultilevel, noisy);

  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;

  std::cout << "\n--- literal §4.1 schedule at this n (reported, never "
               "simulated) ---\n";
  const auto profile = gg::core::compute_level_profile(n, 48.0);
  const auto paper =
      gg::core::make_paper_schedule(n, eps, 1e-2, 1.0, profile);
  std::cout << paper.to_string() << '\n';
  const auto practical =
      gg::core::make_practical_schedule(eps, 1.0, 10.0, profile);
  std::cout << "\n--- practical schedule actually simulated ---\n"
            << practical.to_string() << '\n';

  std::cout << "\nReading guide: convex rep averaging (the pre-paper\n"
               "baseline update at representative level) either fails to\n"
               "converge in the round budget or needs orders of magnitude\n"
               "more rounds — the affine jump is what moves Theta(1) of a\n"
               "square's mass per exchange.  The paper-literal gain works\n"
               "when occupancies concentrate; at simulable occupancies it\n"
               "can leave the (1/3,1/2) window (see also E8).\n";
  return 0;
}

int main(int argc, char** argv) { return gg::run_main(argc, argv, run); }
