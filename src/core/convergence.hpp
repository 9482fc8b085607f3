// Cross-protocol transmissions-to-epsilon measurement harness.
//
// One entry point runs any of the implemented protocols on a given graph
// and initial field until the epsilon-averaging criterion, returning the
// transmission breakdown — the primitive behind experiment E5 (the headline
// scaling table) and the integration tests.
#ifndef GEOGOSSIP_CORE_CONVERGENCE_HPP
#define GEOGOSSIP_CORE_CONVERGENCE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/decentralized.hpp"
#include "core/hierarchy_protocol.hpp"
#include "core/multilevel.hpp"
#include "gossip/geographic.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "support/rng.hpp"

namespace geogossip::core {

enum class ProtocolKind {
  kBoydPairwise,        ///< nearest-neighbour gossip (Boyd et al.)
  kDimakisGeographic,   ///< geographic gossip (Dimakis et al.)
  kPathAveraging,       ///< geographic gossip with path averaging (extension)
  kAffineOneLevel,      ///< this paper, §3 one-level (round accounting)
  kAffineMultilevel,    ///< this paper, full hierarchy (round accounting)
  kAffineAsync,         ///< this paper, §4.2 asynchronous state machine
  kAffineDecentralized, ///< §8 extension: no control, rate separation only
};

std::string_view protocol_kind_name(ProtocolKind kind) noexcept;

struct TrialOptions {
  double eps = 1e-3;
  /// Tick cap override for engine-driven protocols (0 = per-protocol
  /// heuristic, generous enough for the expected convergence time).
  std::uint64_t max_ticks = 0;
  /// Round-accounting configuration for the affine protocols.
  MultilevelConfig multilevel;
  /// Async state-machine configuration.
  HierarchyProtocolConfig async_protocol;
  /// Decentralized-extension configuration.
  DecentralizedConfig decentralized;
  /// Dimakis baseline configuration.
  gossip::GeographicOptions geographic;
};

/// Outcome of one replicate, from the protocol run to the record file: what
/// run_protocol_trial returns, what exp::ReplicateResult names, and what
/// exp::replicate_record writes and exp::Checkpoint reads back.  Protocol
/// trials fill the transmission fields; probe trials (E1-E4, E6-E9
/// measurements that run no gossip protocol) report through the
/// open-ended `metrics` map, one named scalar per observable.
struct TrialOutcome {
  /// The replicate's Rng seed; the harness sets it (0 from a bare
  /// run_protocol_trial).
  std::uint64_t seed = 0;
  bool converged = false;
  double final_error = 1.0;
  /// Conservation check: |sum x(end) - sum x(0)|.
  double sum_drift = 0.0;
  sim::TxSnapshot transmissions;
  /// Exchange counts reported by the decentralized protocol (E11's
  /// far/near rate-separation diagnostic); 0 for every other kind.
  std::uint64_t far_exchanges = 0;
  std::uint64_t near_exchanges = 0;
  /// Named per-trial observables (hop counts, spectral estimates,
  /// acceptance rates, ...).  std::map, not unordered: deterministic key
  /// order keeps aggregation and record output stable.
  std::map<std::string, double> metrics;
};

/// Runs one protocol once.  `x0` should already be centred (the harness
/// does not modify it).  `checkpoints` periodically serializes the
/// mid-trial protocol + RNG + clock state (see sim::CheckpointPolicy); a
/// non-empty `resume` payload restores a snapshotted trial of the SAME
/// (kind, graph, x0, rng-seed) configuration and continues bit-identically.
/// Round-based kinds snapshot between top rounds; tick kinds at tick
/// cadence.  All kinds support the contract.  A trial runs on the calling
/// thread only.
TrialOutcome run_protocol_trial(ProtocolKind kind,
                                const graph::GeometricGraph& graph,
                                const std::vector<double>& x0, Rng& rng,
                                const TrialOptions& options = {},
                                const sim::CheckpointPolicy& checkpoints = {},
                                std::string_view resume = {});

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_CONVERGENCE_HPP
