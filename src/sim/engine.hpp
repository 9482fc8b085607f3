// Asynchronous gossip engine: drives any protocol tick-by-tick until the
// epsilon-averaging criterion (DESIGN.md §6) is met.
#ifndef GEOGOSSIP_SIM_ENGINE_HPP
#define GEOGOSSIP_SIM_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/metrics.hpp"

namespace geogossip {
class SnapshotReader;
class SnapshotWriter;
}  // namespace geogossip

namespace geogossip::sim {

/// Interface every averaging protocol implements.  The engine owns the
/// clock; the protocol owns values and transmission accounting.
class GossipProtocol {
 public:
  virtual ~GossipProtocol() = default;

  virtual std::string_view name() const = 0;

  /// Handles one clock tick belonging to `tick.node`.
  virtual void on_tick(const Tick& tick) = 0;

  /// Current per-node values.
  virtual std::span<const double> values() const = 0;

  virtual const TxMeter& meter() const = 0;

  /// Squared deviation ||x - mean(x)||^2 as the convergence criterion
  /// reads it.  O(1): the engine checks it after every tick.
  virtual double deviation_sq() const = 0;

  /// Snapshot/Restore contract (mid-replicate durability).  snapshot()
  /// serializes every field that affects the remaining trajectory;
  /// restore() is called on a FRESHLY CONSTRUCTED protocol of the identical
  /// configuration (same graph, x0 and RNG seed — construction-time
  /// randomness is deterministic per seed) and overwrites that state, after
  /// which the run continues bit-identically once the engine clock and the
  /// RNG are restored alongside.
  virtual void snapshot(SnapshotWriter& w) const = 0;
  virtual void restore(SnapshotReader& r) = 0;
};

/// Mid-run checkpoint cadence for run_to_epsilon.  Snapshots are pure
/// reads of the run state — taking one never perturbs the trajectory — so
/// enabling checkpoints cannot change results.  persist() receives the
/// serialized engine+RNG+protocol payload; a throw from it propagates (a
/// checkpoint that cannot be written is an environment failure, mirroring
/// the sink's flush-check-throw policy).
struct CheckpointPolicy {
  /// Snapshot every N engine ticks (round-based protocols: every N top
  /// rounds).  0 = no tick cadence.
  std::uint64_t every_ticks = 0;
  /// Snapshot when this much wall time passed since the previous snapshot
  /// (or the run start).  0 = no wall cadence.
  double every_seconds = 0.0;
  std::function<void(std::string_view payload, std::uint64_t ticks)> persist;

  bool enabled() const noexcept {
    return static_cast<bool>(persist) &&
           (every_ticks > 0 || every_seconds > 0.0);
  }
};

struct RunConfig {
  /// Convergence target: ||x(t) - mean|| <= epsilon * ||x(0) - mean||.
  double epsilon = 1e-3;
  /// Hard tick budget (0 = 10^7 * n heuristic is NOT applied; treat 0 as
  /// "caller must set" and checked).
  std::uint64_t max_ticks = 0;
  /// When > 0, (transmissions, error) samples are recorded every
  /// `trace_interval` ticks into RunResult::trace.
  std::uint64_t trace_interval = 0;
};

struct RunResult {
  bool converged = false;
  std::uint64_t ticks = 0;
  double model_time = 0.0;
  /// ||x(end) - mean|| / ||x(0) - mean||.
  double final_error = 1.0;
  TxSnapshot transmissions;
  /// (total transmissions, relative error) samples, if tracing was enabled.
  std::vector<std::pair<std::uint64_t, double>> trace;

  std::string to_string() const;
};

/// ||x - mean(x)||_2.
double deviation_norm(std::span<const double> values);

/// Runs `protocol` on a fresh AsyncClock(n, rng) until convergence or the
/// tick budget, testing convergence after every tick, so the reported
/// tick count is exact.  Requires config.max_ticks > 0.
RunResult run_to_epsilon(GossipProtocol& protocol, Rng& rng,
                         const RunConfig& config);

/// Checkpoint-aware variant.  With a non-empty `resume` payload (produced
/// by an earlier CheckpointPolicy::persist of the same run configuration)
/// the engine restores the clock, the RNG and the protocol to the
/// snapshotted tick and continues; the completed run is bit-identical to
/// an uninterrupted one.  The payload self-identifies (protocol name, n)
/// and restore fails loudly on any mismatch or truncation.
RunResult run_to_epsilon(GossipProtocol& protocol, Rng& rng,
                         const RunConfig& config,
                         const CheckpointPolicy& checkpoints,
                         std::string_view resume);

}  // namespace geogossip::sim

#endif  // GEOGOSSIP_SIM_ENGINE_HPP
