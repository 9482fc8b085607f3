#include "core/multilevel.hpp"

#include <cmath>
#include <limits>

#include "core/affine.hpp"
#include "core/schedule.hpp"
#include "support/check.hpp"
#include "support/snapshot.hpp"

namespace geogossip::core {

using geometry::SquareInfo;
using graph::NodeId;

MultilevelAffineGossip::MultilevelAffineGossip(
    const graph::GeometricGraph& graph, std::vector<double> x0, Rng& rng,
    const MultilevelConfig& config)
    : ValueProtocol(graph, std::move(x0), rng),
      config_(config),
      hierarchy_(graph.points(), graph.region(),
                 practical_hierarchy(geometry::kLeafOccupancy,
                                     config.max_depth)),
      hops_(graph, hierarchy_) {
  GG_CHECK_ARG(config.eps > 0.0 && config.eps < 1.0, "eps in (0,1)");
  GG_CHECK_ARG(config.max_depth >= 1, "max_depth >= 1");
  GG_CHECK_ARG(config.leaf_noise >= 0.0 && std::isfinite(config.leaf_noise),
               "leaf_noise finite and >= 0");
  // run() refreshes the tracker on its own top-round cadence.
  set_tracker_refresh_interval(std::numeric_limits<std::uint64_t>::max());

  plan_.resize(hierarchy_.square_count());
  for (std::size_t id = 0; id < plan_.size(); ++id) {
    const SquareInfo& square = hierarchy_.square(static_cast<int>(id));
    const double eps = eps_at_depth(config_.eps, square.depth);
    const std::size_t slots = hops_.slots(static_cast<int>(id)).size();
    if (slots >= 2) plan_[id].rounds = inner_rounds(slots, eps);
    if (square.is_leaf() && square.members.size() >= 2) {
      plan_[id].leaf_charge = charged_leaf_cost(
          config_.leaf_cost, square.members.size(),
          square.rect.width() / graph_->radius(), eps);
    }
  }
}

void MultilevelAffineGossip::charge_activation(int square_id,
                                               const SquareInfo& square) {
  if (!config_.charge_control) return;
  if (square.is_leaf()) {
    // Level-1 activation + deactivation: flood the square twice.
    meter_.add(sim::TxCategory::kControl, 2 * square.members.size());
    return;
  }
  // Higher level: one routed control packet per child representative,
  // on activation and deactivation.
  meter_.add(sim::TxCategory::kControl, 2 * hops_.fan_out_hops(square_id));
}

void MultilevelAffineGossip::leaf_average(int square_id,
                                          const SquareInfo& square) {
  const auto& members = square.members;
  if (members.size() <= 1) return;

  // Idealized averaging: charge the model cost, set members to the mean,
  // optionally perturb (Lemma 2's imperfect-averaging noise).
  meter_.add(sim::TxCategory::kLocal,
             plan_[static_cast<std::size_t>(square_id)].leaf_charge);

  if (config_.leaf_noise == 0.0) {
    apply_average(members);
    return;
  }
  double mean = 0.0;
  for (const auto node : members) mean += value(node);
  mean /= static_cast<double>(members.size());
  std::vector<double> noise(members.size());
  double noise_mean = 0.0;
  for (double& nu : noise) {
    nu = rng_->uniform(-config_.leaf_noise, config_.leaf_noise);
    noise_mean += nu;
  }
  noise_mean /= static_cast<double>(members.size());
  for (std::size_t k = 0; k < members.size(); ++k) {
    // Centre the noise so the square sum (and hence the global average)
    // is conserved exactly, matching Lemma 2's +nu/-nu structure.
    set_value(members[k], mean + noise[k] - noise_mean);
  }
}

void MultilevelAffineGossip::exchange(int parent, std::size_t i,
                                      std::size_t j) {
  const auto children = hops_.slots(parent);
  const auto& info_i = hierarchy_.square(children[i]);
  const auto& info_j = hierarchy_.square(children[j]);
  const auto rep_i = static_cast<NodeId>(info_i.representative);
  const auto rep_j = static_cast<NodeId>(info_j.representative);

  // Two greedy-routed packets: value there, value back.
  meter_.add(sim::TxCategory::kLongRange,
             2 * std::uint64_t{hops_.sibling_hops(parent, i, j)});

  const double beta =
      exchange_beta(config_.beta_mode, info_i.expected_occupancy,
                    info_i.occupancy(), info_j.occupancy());

  // Effective square-level coefficients; the paper needs them in (1/3,1/2).
  const double alpha_i = beta / static_cast<double>(info_i.occupancy());
  const double alpha_j = beta / static_cast<double>(info_j.occupancy());
  if (config_.beta_mode != BetaMode::kConvexRep &&
      (!alpha_in_paper_range(alpha_i) || !alpha_in_paper_range(alpha_j))) {
    ++alpha_out_of_range_;
  }

  apply_affine_jump(rep_i, rep_j, beta);
}

void MultilevelAffineGossip::average_square(int square_id) {
  const SquareInfo& square = hierarchy_.square(square_id);
  if (square.members.empty()) return;

  charge_activation(square_id, square);
  if (square.is_leaf()) {
    leaf_average(square_id, square);
    return;
  }

  const auto children = hops_.slots(square_id);
  if (children.size() == 1) {
    average_square(children.front());
    return;
  }

  // Activation: every child is averaged once before exchanges begin.
  for (const int child : children) average_square(child);

  const std::uint32_t rounds =
      plan_[static_cast<std::size_t>(square_id)].rounds;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    exchange_round(square_id);
  }
}

void MultilevelAffineGossip::exchange_round(int square_id) {
  const auto children = hops_.slots(square_id);
  const std::size_t i = rng_->below(children.size());
  const std::size_t j = rng_->below_excluding(children.size(), i);
  exchange(square_id, i, j);
  average_square(children[i]);
  average_square(children[j]);
}

void MultilevelAffineGossip::on_tick(const sim::Tick& /*tick*/) {
  exchange_round(hierarchy_.root());
}

void MultilevelAffineGossip::snapshot_scratch(SnapshotWriter& w) const {
  w.u64(alpha_out_of_range_);
}

void MultilevelAffineGossip::restore_scratch(SnapshotReader& r) {
  alpha_out_of_range_ = r.u64();
}

MultilevelResult MultilevelAffineGossip::run() {
  return run(sim::CheckpointPolicy{}, std::string_view{});
}

MultilevelResult MultilevelAffineGossip::run(
    const sim::CheckpointPolicy& checkpoints, std::string_view resume) {
  MultilevelResult result;

  const int root = hierarchy_.root();
  const auto children = hops_.slots(root);
  sim::RunProgress progress;  // steps count top rounds

  if (!resume.empty()) {
    // Snapshots are only taken inside the closed top loop, so a resume
    // payload implies the non-degenerate path: skip the activation pass
    // (its transmissions and RNG draws are part of the restored state).
    progress = sim::restore_run(resume, *this, *rng_);
    GG_CHECK_ARG(children.size() >= 2,
                 "MultilevelAffineGossip: snapshot from a non-degenerate "
                 "run restored into a degenerate deployment");
  } else {
    progress.initial_dev_sq = deviation_sq();
    if (progress.initial_dev_sq == 0.0) {
      result.converged = true;
      result.final_error = 0.0;
      result.transmissions = meter_.snapshot();
      return result;
    }

    // Degenerate deployments: a root that is itself a leaf just averages.
    if (children.size() < 2) {
      const double initial_dev = std::sqrt(progress.initial_dev_sq);
      average_square(root);
      refresh_tracker();
      result.converged =
          std::sqrt(deviation_sq()) <= config_.eps * initial_dev;
      result.final_error = std::sqrt(deviation_sq()) / initial_dev;
      result.transmissions = meter_.snapshot();
      return result;
    }

    charge_activation(root, hierarchy_.square(root));
    for (const int child : children) average_square(child);
  }
  const double initial_dev = std::sqrt(progress.initial_dev_sq);

  std::uint64_t max_rounds = config_.max_top_rounds;
  if (max_rounds == 0) {
    const double k = static_cast<double>(children.size());
    max_rounds = static_cast<std::uint64_t>(
        std::ceil(64.0 * k * std::log(k / config_.eps)));
  }

  const bool snapshotting = checkpoints.enabled();
  sim::Checkpointer checkpointer(checkpoints, 1);
  for (std::uint64_t round = progress.steps; round < max_rounds; ++round) {
    on_tick(sim::Tick{});
    progress.steps = round + 1;

    if ((round & 0xFF) == 0xFF) refresh_tracker();  // defeat FP drift
    const double err = std::sqrt(deviation_sq()) / initial_dev;
    if (config_.trace_every != 0 && round % config_.trace_every == 0) {
      progress.trace.emplace_back(meter_.total(), err);
    }
    if (err <= config_.eps) break;
    if (snapshotting && checkpointer.due(progress.steps)) {
      checkpointer.persist(*this, *rng_, progress);
    }
  }

  refresh_tracker();
  result.top_rounds = progress.steps;
  result.final_error = std::sqrt(deviation_sq()) / initial_dev;
  result.converged = result.final_error <= config_.eps;
  result.transmissions = meter_.snapshot();
  result.trace = std::move(progress.trace);
  result.alpha_out_of_range = alpha_out_of_range_;
  return result;
}

}  // namespace geogossip::core
