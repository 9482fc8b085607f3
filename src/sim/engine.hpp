// Asynchronous gossip engine: drives any protocol tick-by-tick until the
// epsilon-averaging criterion (DESIGN.md §4) is met.
#ifndef GEOGOSSIP_SIM_ENGINE_HPP
#define GEOGOSSIP_SIM_ENGINE_HPP

#include <chrono>
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

/// Mid-run checkpoint cadence for a run loop (run_to_epsilon, or a
/// round-based protocol's own loop).  Snapshots are pure reads of the run
/// state — taking one never perturbs the trajectory — so enabling
/// checkpoints cannot change results.  persist() receives the serialized
/// run+RNG+protocol payload; a throw from it propagates (a checkpoint that
/// cannot be written is an environment failure, mirroring the sink's
/// flush-check-throw policy).
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

/// What a run loop carries besides the RNG and the protocol.
struct RunProgress {
  std::uint64_t steps = 0;      ///< engine ticks, or top rounds
  double model_time = 0.0;      ///< engine clock time; 0 for a round loop
  double initial_dev_sq = 0.0;  ///< ||x(0) - mean||^2
  /// (total transmissions, relative error) samples so far; only the round
  /// loop records any (MultilevelConfig::trace_every), but every payload
  /// carries the count.
  std::vector<std::pair<std::uint64_t, double>> trace;
};

/// One checkpoint-due test and one payload layout for every run loop: a
/// tag, the protocol name, n, `progress` field by field, the RNG, then
/// protocol.snapshot().  The wall cadence reads the clock only on steps
/// that are multiples of `wall_poll_steps`, so a hot loop stays free of
/// clock calls.
class Checkpointer {
 public:
  Checkpointer(const CheckpointPolicy& policy, std::uint64_t wall_poll_steps)
      : policy_(&policy), wall_poll_steps_(wall_poll_steps) {}

  /// Whether a snapshot is due once `steps` steps have completed.
  bool due(std::uint64_t steps) const;

  /// Hands the payload to policy.persist and restarts the wall cadence.
  void persist(const GossipProtocol& protocol, const Rng& rng,
               const RunProgress& progress);

 private:
  const CheckpointPolicy* policy_;
  std::uint64_t wall_poll_steps_;
  std::chrono::steady_clock::time_point last_snapshot_ =
      std::chrono::steady_clock::now();
};

/// Restores a Checkpointer payload into a freshly constructed `protocol`
/// and its `rng` and returns the loop's part.  The initial deviation is
/// restored, never recomputed, so the target stays the one the interrupted
/// run was chasing.  Throws a std::logic_error when the payload is for
/// another protocol or n, and IoError when it is truncated.
RunProgress restore_run(std::string_view payload, GossipProtocol& protocol,
                        Rng& rng);

struct RunConfig {
  /// Convergence target: ||x(t) - mean|| <= epsilon * ||x(0) - mean||.
  double epsilon = 1e-3;
  /// Hard tick budget (0 = 10^7 * n heuristic is NOT applied; treat 0 as
  /// "caller must set" and checked).
  std::uint64_t max_ticks = 0;
};

struct RunResult {
  bool converged = false;
  std::uint64_t ticks = 0;
  double model_time = 0.0;
  /// ||x(end) - mean|| / ||x(0) - mean||.
  double final_error = 1.0;
  TxSnapshot transmissions;

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
