// Shared types of the repository benchmark (see README.md in this
// directory).  The benchmark lives outside the library: it builds each
// workload as an exp::Scenario, runs it through exp::Runner, and times
// calls into the modules' public functions.  It adds no instrumentation
// to the library; per-layer numbers come from the spans and counters the
// library already emits plus fixed-count micro-timings made here.
#ifndef GEOGOSSIP_PERFBENCH_HPP
#define GEOGOSSIP_PERFBENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/convergence.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace gg = geogossip;

/// Convergence target of every workload.
inline constexpr double kEpsilon = 1e-3;
/// Stated tolerance on |sum x(end) - sum x(0)| for a unit-norm centred
/// x(0): exchanges conserve the sum exactly up to rounding, so anything
/// above this is a bug, not noise.
inline constexpr double kSumDriftTolerance = 1e-9;

/// One benchmark workload: a seeded scenario plus the Runner wiring it is
/// measured with.
struct Workload {
  std::string name;
  gg::exp::Scenario scenario;
  unsigned threads = 1;
  /// Stream every finished replicate through JsonLinesSink::write_replicate.
  bool stream_records = false;
  /// RunnerOptions::snapshot_every_ticks (0 = no snapshots).
  std::uint64_t snapshot_every_ticks = 0;
  /// Set-ups timed per run; setup_s is their median.
  int setup_reps = 3;
  /// Passes run and checked before the timed ones; their wall time stays
  /// out of the median.
  int warmup_runs = 0;
  /// The traced mode also runs the workload on one thread and requires
  /// the same records digest.
  bool check_single_thread = false;
};

const std::vector<std::string>& workload_names();
/// Builds `name` from the master seed; throws ArgumentError when unknown.
Workload make_workload(const std::string& name, std::uint64_t seed);

double seconds_since(std::chrono::steady_clock::time_point start);
/// Seed of micro-op k of `layer` on `workload`: a pure function of the
/// master seed and these three labels, never of timing.
std::uint64_t op_seed(std::uint64_t master, std::string_view workload,
                      std::string_view layer, std::uint64_t k) noexcept;

bool routes(gg::core::ProtocolKind kind) noexcept;
bool round_based(gg::core::ProtocolKind kind) noexcept;

/// A replicate's state right before its first tick, rebuilt through the
/// same public calls run_replicate makes, in the same order and on the
/// same seed, so the trajectory that follows is the Runner's.
struct Prepared {
  gg::Rng rng;
  std::optional<gg::graph::GeometricGraph> graph;
  std::unique_ptr<gg::sim::GossipProtocol> tick_protocol;
  std::unique_ptr<gg::core::MultilevelAffineGossip> round_protocol;
  /// Seconds per set-up step.
  double graph_s = 0.0;
  double mirror_s = 0.0;
  double field_s = 0.0;
  double protocol_s = 0.0;

  explicit Prepared(std::uint64_t seed) : rng(seed) {}
  double total_s() const { return graph_s + mirror_s + field_s + protocol_s; }
};

/// Builds graph, routing mirror (kinds that route), initial field and
/// protocol for (cell, seed), timing each step.
std::unique_ptr<Prepared> prepare(const gg::exp::Cell& cell,
                                  std::uint64_t seed);

/// Outcome of re-running one replicate through the public protocol API.
struct Replay {
  gg::sim::TxSnapshot transmissions;
  std::uint64_t ticks = 0;       ///< engine ticks (tick protocols)
  std::uint64_t top_rounds = 0;  ///< closed-loop rounds (round protocols)
  std::uint64_t refreshes = 0;   ///< exact tracker refreshes
  double run_s = 0.0;            ///< seconds from first tick to the end
};

/// Finishes a prepared replicate (run to epsilon) and reports its counts.
Replay finish(Prepared& prepared, const gg::exp::Cell& cell);

/// Per-replicate output check; returns an empty string when it passes.
std::string check_replicate(const gg::exp::ReplicateResult& result);

/// FNV-1a over the canonical text of every replicate record, in (cell,
/// replicate) order.
std::uint64_t records_digest(const gg::exp::SweepSummary& summary);

/// One Runner::run of the workload, untraced or traced by the caller.
struct RunOutcome {
  gg::exp::SweepSummary summary;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t tx_total = 0;
  std::uint64_t replicates = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
};

/// Runs the workload once.  `out_dir` receives the streamed records and
/// the snapshot slots; `threads` overrides the workload's count when > 0.
RunOutcome run_workload(const Workload& workload, const std::string& out_dir,
                        unsigned threads = 0);

/// Per-layer metrics of the traced mode, by name, with the reconcile
/// report printed to `report` along the way.
struct LayerInputs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::string out_dir;
  /// The untraced run whose records the traced run and replay must match.
  const RunOutcome* untraced = nullptr;
};

struct LayerResult {
  std::map<std::string, double> metrics;
  bool correct = true;
  std::vector<std::string> problems;
};

LayerResult measure_layers(const LayerInputs& inputs, std::ostream& report);

/// Per-layer metric catalogue: the names the traced mode reports, their
/// units, direction, and the end-to-end metric and workload each should
/// move.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;
};
const std::vector<LayerMetric>& layer_metrics();

}  // namespace perfbench

#endif  // GEOGOSSIP_PERFBENCH_HPP
