// Scenario model for the experiment-orchestration subsystem.
//
// A Scenario names a replicated sweep: a list of cells (protocol kind ×
// size × configuration × radius policy × initial field) plus a replicate
// count and a master seed.  Replicate k of cell c always draws the seed
// replicate_seed(master, c, k), which depends only on those three integers —
// never on thread interleaving — so a scenario is reproducible bit-for-bit
// at any worker count.  The built-in presets (one per experiment at CI
// smoke scale, plus paper and XL sizes) are one constant table in
// scenario.cpp, looked up by name with find_preset(); a sweep of one's own
// is a Scenario passed straight to exp::Runner.
#ifndef GEOGOSSIP_EXP_SCENARIO_HPP
#define GEOGOSSIP_EXP_SCENARIO_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/convergence.hpp"
#include "sim/field.hpp"

namespace geogossip::exp {

struct Cell;

/// Outcome of one (cell, replicate) trial: the one result struct that
/// core::run_protocol_trial returns and probe trials fill through its
/// `metrics` map.  The runner aggregates every metric key it sees.
using ReplicateResult = core::TrialOutcome;

/// A cell's measurement procedure: pure function of (cell, seed), so the
/// scenario stays bit-reproducible at any thread count.  Empty = run the
/// cell's protocol through core::run_protocol_trial.
using TrialFn =
    std::function<ReplicateResult(const Cell& cell, std::uint64_t seed)>;

/// Initial field x(0) drawn fresh for each replicate (centred and
/// normalized by the runner before the trial starts).
using CellField = sim::FieldKind;

/// Sentinel for Cell::seed_stream: derive the stream from the cell's index.
inline constexpr std::size_t kAutoSeedStream =
    static_cast<std::size_t>(-1);

/// One sweep cell: a protocol configuration evaluated at one deployment
/// size.  `replicates` fresh (graph, field) pairs are run per cell.
struct Cell {
  std::string label;  ///< row label in tables/sinks; defaults to kind name
  core::ProtocolKind kind = core::ProtocolKind::kBoydPairwise;
  std::size_t n = 0;
  double radius_multiplier = 1.2;  ///< r = mult * sqrt(log n / n)
  CellField field = CellField::kSpikedGaussian;
  core::TrialOptions options;
  /// Seed-stream id; kAutoSeedStream uses the cell's index (independent
  /// draws per cell).  Give several cells the same id for a PAIRED
  /// comparison: replicate k then samples the identical (graph, field) in
  /// each of them, isolating the configuration difference.
  std::size_t seed_stream = kAutoSeedStream;
  /// Measurement name for probe cells ("routing-hops", "spectral", ...);
  /// empty for protocol cells.  Shown in the sinks' protocol column.
  std::string probe;
  /// Free-form numeric knobs consumed by `trial` (horizon t, eps threshold,
  /// noise bound, sample counts, ...).  Part of the cell's identity, so
  /// factories rebuild them deterministically.
  std::map<std::string, double> params;
  /// Estimated peak resident bytes of ONE replicate of this cell (graph +
  /// protocol; see graph::estimate_build_memory_bytes).  0 = negligible.
  /// When RunnerOptions::memory_budget_bytes is set, the Runner admits
  /// concurrent replicates only while their hints fit the budget, so an
  /// XL sweep (n = 2^17..2^20, ~0.1-1 GB per replicate) cannot
  /// oversubscribe memory just because the pool has idle workers.
  std::uint64_t mem_hint_bytes = 0;
  /// Custom measurement; empty runs the protocol trial.  Must depend only
  /// on (cell, seed) — never on globals or wall clock.
  TrialFn trial;

  /// Looks up a numeric knob; returns `fallback` when absent.
  double param(const std::string& key, double fallback = 0.0) const;
};

/// A named, replicated experiment over a list of cells.
struct Scenario {
  std::string name;
  std::string description;
  std::uint32_t replicates = 4;
  std::uint64_t master_seed = 1;
  /// Deque, not vector: add() hands out references into the container,
  /// and deque growth never invalidates references to existing elements.
  std::deque<Cell> cells;

  /// Appends a cell labelled with the protocol kind name.  Both overloads
  /// throw ArgumentError, naming n, unless n >= 2: every builder adds its
  /// cells here, so a bad size fails before a Runner starts.
  Cell& add(core::ProtocolKind kind, std::size_t n);
  /// Appends a cell with an explicit row label.
  Cell& add(std::string label, core::ProtocolKind kind, std::size_t n);
};

/// Deterministic seed-stream: the seed for replicate `replicate` of the
/// cell at `cell_index`.  Pure function of its arguments (SplitMix64
/// chaining via derive_seed), so results are independent of scheduling.
std::uint64_t replicate_seed(std::uint64_t master_seed,
                             std::size_t cell_index,
                             std::uint32_t replicate) noexcept;

/// The built-in preset called `name`, built afresh so the caller may
/// mutate it; std::nullopt for a name preset_names() does not list.
std::optional<Scenario> find_preset(std::string_view name);

/// Every built-in preset's name, sorted: a quick preset for each
/// experiment E1-E11, a paper-scale one for each probe figure (E1-E4,
/// E6-E9), the XL presets and the e5-scaling-quick alias.
std::vector<std::string> preset_names();

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_SCENARIO_HPP
