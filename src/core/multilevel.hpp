// The paper's hierarchical affine gossip, as a round-based simulator with
// faithful transmission accounting: leaves are averaged exactly and charged
// a leaf cost model (core/round_protocol.hpp) instead of running Near.
//
// Structure follows §3 exactly, applied recursively per §4:
//   * the deployment square is partitioned per the hierarchy rule;
//   * averaging a square = (activate children; average each child once;
//     then rounds of: pick two distinct children uniformly, exchange their
//     representatives' values over measured greedy routes, apply the affine
//     jump beta = (2/5) E#(child), re-average both children recursively;
//     deactivate);
//   * leaves charge nearest-neighbour averaging.
//
// The TOP level is closed-loop: rounds repeat until the measured global
// error reaches the target epsilon, which is what the transmissions-to-eps
// benches report.  Inner levels are open-loop on the practical schedule,
// mirroring the protocol's counter-driven budgets.
//
// With max_depth = 1 this degenerates to the paper's §3 one-level protocol;
// with BetaMode::kConvexRep it becomes the convex ablation (representatives
// average instead of jumping), isolating the contribution of non-convex
// affine combinations.
//
// Values, deviation tracker and transmission meter live in the
// gossip::ValueProtocol base; on_tick() is one top round.  run() drives the
// top loop itself, not through sim::run_to_epsilon: it draws no clock,
// refreshes the tracker every 256 top rounds (the base's element-count
// refresh is off) and reads final_error after a last refresh.
#ifndef GEOGOSSIP_CORE_MULTILEVEL_HPP
#define GEOGOSSIP_CORE_MULTILEVEL_HPP

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "core/round_protocol.hpp"
#include "geometry/hierarchy.hpp"
#include "gossip/base.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "support/rng.hpp"

namespace geogossip::core {

/// The hierarchy has leaves of geometry::kLeafOccupancy expected members;
/// a depth-r square averages to eps_at_depth(eps, r) in inner_rounds
/// rounds (core/schedule.hpp).
struct MultilevelConfig {
  /// Top-level accuracy target (closed loop).
  double eps = 1e-3;
  /// Depth cap; 1 reproduces the §3 one-level protocol.
  int max_depth = geometry::kMaxDepth;
  LeafCostModel leaf_cost = LeafCostModel::kGrgMixing;
  /// Affine gain.  Default: harmonic-of-actual-occupancies, which keeps the
  /// effective alphas in (0, 0.8) for every occupancy pair.  The paper's
  /// literal beta = (2/5) E# (kExpected) assumes every occupancy is within
  /// 10% of E# — true in the (log n)^8-leaf asymptotic regime, but at
  /// simulable leaf sizes (tens of sensors) an under-occupied square makes
  /// alpha = beta/m exceed 1 and the update amplifies; kExpected remains
  /// available for ablation E10 and the instability tests (DESIGN.md §2).
  BetaMode beta_mode = BetaMode::kActualHarmonic;
  /// Absolute bound of the noise injected after each idealized leaf
  /// averaging (Lemma 2 in vivo); 0 = perfect leaf averaging.
  double leaf_noise = 0.0;
  /// Charge Activate/Deactivate control traffic.
  bool charge_control = true;
  /// Hard cap on closed-loop top rounds (0 = automatic).
  std::uint64_t max_top_rounds = 0;
  /// Record an (transmissions, error) trace sample every k top rounds
  /// (0 = no trace).
  std::uint64_t trace_every = 0;
};

struct MultilevelResult {
  bool converged = false;
  std::uint64_t top_rounds = 0;
  double final_error = 1.0;
  sim::TxSnapshot transmissions;
  std::vector<std::pair<std::uint64_t, double>> trace;
  /// Number of inner exchanges whose effective alpha = beta / occupancy
  /// fell outside the paper's (1/3, 1/2) window (occupancy fluctuation).
  std::uint64_t alpha_out_of_range = 0;
};

class MultilevelAffineGossip final : public gossip::ValueProtocol {
 public:
  MultilevelAffineGossip(const graph::GeometricGraph& graph,
                         std::vector<double> x0, Rng& rng,
                         const MultilevelConfig& config);

  std::string_view name() const override { return "affine-multilevel"; }

  /// One top round (see exchange_round); the tick is not read.  Throws
  /// ArgumentError unless the root has two or more non-empty children.
  void on_tick(const sim::Tick& tick) override;

  /// Runs the closed top-level loop to the epsilon target.
  MultilevelResult run();

  /// Checkpoint-aware variant.  Snapshots are taken between top rounds,
  /// the natural commit point of the closed loop, in run_to_epsilon's
  /// layout (sim::Checkpointer): CheckpointPolicy::every_ticks counts top
  /// rounds, the wall cadence is polled every round, and the model time is
  /// 0.  A non-empty `resume` payload restores values, tracker, meter, RNG
  /// and the round count, and the completed run is bit-identical to an
  /// uninterrupted one.  Degenerate deployments (leaf root, a single
  /// nonempty child) finish in one open-loop pass and never snapshot.
  MultilevelResult run(const sim::CheckpointPolicy& checkpoints,
                       std::string_view resume);

  const geometry::PartitionHierarchy& hierarchy() const noexcept {
    return hierarchy_;
  }

 protected:
  void snapshot_scratch(SnapshotWriter& w) const override;
  void restore_scratch(SnapshotReader& r) override;

 private:
  /// Per-square constants of the recursion, computed once by the
  /// constructor: a replicate revisits each square hundreds of times (at
  /// n = 2^19, 11M leaf averages over about 24k leaves).
  struct SquarePlan {
    /// inner_rounds(k, eps_r) over k slots; 0 when k < 2.
    std::uint32_t rounds = 0;
    /// Charged-model cost of averaging a leaf of two or more members.
    std::uint64_t leaf_charge = 0;
  };

  /// Open-loop recursive averaging of one square at its schedule budget.
  void average_square(int square_id);
  /// One round of `square_id`: an exchange between two distinct children
  /// drawn uniformly, then both children re-averaged.
  void exchange_round(int square_id);
  void leaf_average(int square_id, const geometry::SquareInfo& square);
  /// One exchange between the children in slots `i` and `j` of `parent`.
  void exchange(int parent, std::size_t i, std::size_t j);
  void charge_activation(int square_id, const geometry::SquareInfo& square);

  MultilevelConfig config_;
  geometry::PartitionHierarchy hierarchy_;
  SquareHopTables hops_;
  std::vector<SquarePlan> plan_;
  std::uint64_t alpha_out_of_range_ = 0;
};

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_MULTILEVEL_HPP
