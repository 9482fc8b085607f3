#include "core/convergence.hpp"

#include <cmath>
#include <memory>

#include "gossip/pairwise.hpp"
#include "obs/telemetry.hpp"
#include "gossip/path_averaging.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"

namespace geogossip::core {

std::string_view protocol_kind_name(ProtocolKind kind) noexcept {
  switch (kind) {
    case ProtocolKind::kBoydPairwise:
      return "boyd";
    case ProtocolKind::kDimakisGeographic:
      return "dimakis";
    case ProtocolKind::kPathAveraging:
      return "path-avg";
    case ProtocolKind::kAffineOneLevel:
      return "affine-1level";
    case ProtocolKind::kAffineMultilevel:
      return "affine-multi";
    case ProtocolKind::kAffineAsync:
      return "affine-async";
    case ProtocolKind::kAffineDecentralized:
      return "affine-decentral";
  }
  return "?";
}

namespace {

std::uint64_t default_tick_cap(ProtocolKind kind, std::size_t n, double eps) {
  const double nn = static_cast<double>(n);
  const double log_eps = std::log(1.0 / eps);
  switch (kind) {
    case ProtocolKind::kBoydPairwise:
      // Theta(n^2 / log n) mixing-limited ticks, generous constant.
      return static_cast<std::uint64_t>(
          64.0 * nn * nn * log_eps / std::log(nn));
    case ProtocolKind::kDimakisGeographic:
    case ProtocolKind::kPathAveraging:
      // Near-complete-graph mixing: Theta(n log(1/eps)) ticks.
      return static_cast<std::uint64_t>(256.0 * nn * log_eps);
    case ProtocolKind::kAffineAsync:
    case ProtocolKind::kAffineDecentralized:
      // Activity is dominated by Near inside (active) squares; the
      // protocols need polylog "global time" units = polylog * n ticks.
      return static_cast<std::uint64_t>(
          4096.0 * nn * log_eps * std::log(nn));
    case ProtocolKind::kAffineOneLevel:
    case ProtocolKind::kAffineMultilevel:
      return 0;  // round-based protocols do not use the tick engine
  }
  return 0;
}

double sum_of(std::span<const double> values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

TrialOutcome run_protocol_trial_impl(ProtocolKind kind,
                                     const graph::GeometricGraph& graph,
                                     const std::vector<double>& x0, Rng& rng,
                                     const TrialOptions& options,
                                     const sim::CheckpointPolicy& checkpoints,
                                     std::string_view resume) {
  GG_CHECK_ARG(options.eps > 0.0 && options.eps < 1.0,
               "run_protocol_trial: eps must lie in (0, 1)");
  GG_CHECK_ARG(x0.size() == graph.node_count(),
               "x0 size must match the graph");
  const double sum_before = sum_of(x0);
  TrialOutcome outcome;

  std::unique_ptr<sim::GossipProtocol> protocol;
  switch (kind) {
    case ProtocolKind::kBoydPairwise:
      protocol = std::make_unique<gossip::PairwiseGossip>(graph, x0, rng);
      break;
    case ProtocolKind::kDimakisGeographic:
      protocol = std::make_unique<gossip::GeographicGossip>(
          graph, x0, rng, options.geographic);
      break;
    case ProtocolKind::kPathAveraging:
      protocol = std::make_unique<gossip::PathAveragingGossip>(graph, x0, rng);
      break;
    case ProtocolKind::kAffineAsync: {
      HierarchyProtocolConfig config = options.async_protocol;
      config.eps = options.eps;
      protocol = std::make_unique<HierarchicalAffineProtocol>(graph, x0, rng,
                                                              config);
      break;
    }
    case ProtocolKind::kAffineDecentralized:
      protocol = std::make_unique<DecentralizedAffineGossip>(
          graph, x0, rng, options.decentralized);
      break;
    case ProtocolKind::kAffineOneLevel:
    case ProtocolKind::kAffineMultilevel: {
      // Round-based: the protocol drives its own top loop, no tick engine.
      MultilevelConfig config = options.multilevel;
      config.eps = options.eps;
      if (kind == ProtocolKind::kAffineOneLevel) config.max_depth = 1;
      MultilevelAffineGossip multilevel(graph, x0, rng, config);
      const auto result = multilevel.run(checkpoints, resume);
      outcome.converged = result.converged;
      outcome.final_error = result.final_error;
      outcome.transmissions = result.transmissions;
      outcome.sum_drift = std::abs(multilevel.tracked_sum() - sum_before);
      return outcome;
    }
  }
  if (!protocol) throw ArgumentError("run_protocol_trial: bad kind");

  sim::RunConfig run_config;
  run_config.epsilon = options.eps;
  run_config.max_ticks = options.max_ticks != 0
                             ? options.max_ticks
                             : default_tick_cap(kind, graph.node_count(),
                                                options.eps);
  const auto run =
      sim::run_to_epsilon(*protocol, rng, run_config, checkpoints, resume);
  outcome.converged = run.converged;
  outcome.final_error = run.final_error;
  outcome.transmissions = run.transmissions;
  outcome.sum_drift = std::abs(sum_of(protocol->values()) - sum_before);
  if (const auto* decentralized =
          dynamic_cast<const DecentralizedAffineGossip*>(protocol.get())) {
    outcome.far_exchanges = decentralized->far_exchanges();
    outcome.near_exchanges = decentralized->near_exchanges();
  }
  return outcome;
}

/// Trial-end counter flush: one add per category per trial, never inside
/// the tick loop, so the numbers roll up per sweep at no per-tick cost.
void report_trial(const TrialOutcome& outcome) {
  if (!obs::enabled()) return;
  static const auto c_trials = obs::counter("trial.count");
  static const auto c_converged = obs::counter("trial.converged");
  static const auto c_local = obs::counter("tx.local");
  static const auto c_long = obs::counter("tx.long_range");
  static const auto c_control = obs::counter("tx.control");
  static const auto c_far = obs::counter("protocol.far_exchanges");
  static const auto c_near = obs::counter("protocol.near_exchanges");
  obs::add(c_trials);
  if (outcome.converged) obs::add(c_converged);
  obs::add(c_local, outcome.transmissions[sim::TxCategory::kLocal]);
  obs::add(c_long, outcome.transmissions[sim::TxCategory::kLongRange]);
  obs::add(c_control, outcome.transmissions[sim::TxCategory::kControl]);
  obs::add(c_far, outcome.far_exchanges);
  obs::add(c_near, outcome.near_exchanges);
}

}  // namespace

TrialOutcome run_protocol_trial(ProtocolKind kind,
                                const graph::GeometricGraph& graph,
                                const std::vector<double>& x0, Rng& rng,
                                const TrialOptions& options,
                                const sim::CheckpointPolicy& checkpoints,
                                std::string_view resume) {
  obs::Span span("protocol_run", "n",
                 static_cast<std::int64_t>(graph.node_count()), "kind",
                 static_cast<std::int64_t>(kind));
  TrialOutcome outcome = run_protocol_trial_impl(
      kind, graph, x0, rng, options, checkpoints, resume);
  report_trial(outcome);
  return outcome;
}

}  // namespace geogossip::core
