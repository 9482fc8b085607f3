#include "sim/engine.hpp"

#include <chrono>
#include <cmath>
#include <sstream>

#include "support/check.hpp"
#include "support/snapshot.hpp"
#include "support/string_util.hpp"

namespace geogossip::sim {

namespace {

/// Leading tag of every engine snapshot payload; restore rejects payloads
/// from other producers (e.g. a round-protocol snapshot) up front.
constexpr std::string_view kEnginePayloadTag = "geogossip-engine-run";

/// The wall-clock snapshot cadence polls the clock only every this many
/// ticks, so the per-tick hot path stays free of clock syscalls.
constexpr std::uint64_t kWallPollTicks = 8192;

}  // namespace

double deviation_norm(std::span<const double> values) {
  GG_CHECK_ARG(!values.empty(), "deviation_norm: empty span");
  double mean = 0.0;
  for (const double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double accum = 0.0;
  for (const double v : values) accum += (v - mean) * (v - mean);
  return std::sqrt(accum);
}

std::string RunResult::to_string() const {
  std::ostringstream os;
  os << (converged ? "converged" : "NOT converged") << " after "
     << format_count(ticks) << " ticks, err=" << format_sci(final_error, 2)
     << ", tx: " << transmissions.to_string();
  return os.str();
}

RunResult run_to_epsilon(GossipProtocol& protocol, Rng& rng,
                         const RunConfig& config) {
  return run_to_epsilon(protocol, rng, config, CheckpointPolicy{},
                        std::string_view{});
}

RunResult run_to_epsilon(GossipProtocol& protocol, Rng& rng,
                         const RunConfig& config,
                         const CheckpointPolicy& checkpoints,
                         std::string_view resume) {
  GG_CHECK_ARG(config.epsilon > 0.0, "run_to_epsilon: epsilon > 0");
  GG_CHECK_ARG(config.max_ticks > 0, "run_to_epsilon: max_ticks must be set");

  const auto values = protocol.values();
  const auto n = static_cast<std::uint32_t>(values.size());
  GG_CHECK_ARG(n >= 1, "run_to_epsilon: protocol has no values");

  RunResult result;
  AsyncClock clock(n, rng);
  double initial_dev_sq = 0.0;

  if (!resume.empty()) {
    // The snapshotted initial deviation is restored, never recomputed: the
    // convergence target must be the one the interrupted run was chasing,
    // not one derived from the mid-flight values.
    SnapshotReader r(resume);
    GG_CHECK_ARG(r.str() == kEnginePayloadTag,
                 "run_to_epsilon: resume payload is not an engine snapshot");
    const std::string snap_name = r.str();
    GG_CHECK_ARG(snap_name == protocol.name(),
                 "run_to_epsilon: snapshot is for protocol '" + snap_name +
                     "', not '" + std::string(protocol.name()) + "'");
    const std::uint64_t snap_n = r.u64();
    GG_CHECK_ARG(snap_n == n, "run_to_epsilon: snapshot n mismatch");
    const std::uint64_t ticks = r.u64();
    const double now = r.f64();
    clock.restore(now, ticks);
    initial_dev_sq = r.f64();
    const std::uint64_t trace_count = r.u64();
    result.trace.reserve(trace_count);
    for (std::uint64_t i = 0; i < trace_count; ++i) {
      const std::uint64_t tx = r.u64();
      const double err = r.f64();
      result.trace.emplace_back(tx, err);
    }
    rng.restore(r);
    protocol.restore(r);
    r.finish();
  } else {
    initial_dev_sq = protocol.deviation_sq();
    if (initial_dev_sq <= 0.0) {
      // Already exactly averaged (constant field); nothing to do.
      result.converged = true;
      result.final_error = 0.0;
      result.transmissions = protocol.meter().snapshot();
      return result;
    }
  }

  // The criterion err <= epsilon compares squared quantities, sqrt-free.
  const double target_dev_sq =
      config.epsilon * config.epsilon * initial_dev_sq;

  const bool snapshotting = checkpoints.enabled();
  auto last_snapshot = std::chrono::steady_clock::now();
  const auto take_snapshot = [&] {
    SnapshotWriter w;
    w.str(kEnginePayloadTag);
    w.str(protocol.name());
    w.u64(n);
    w.u64(clock.ticks_elapsed());
    w.f64(clock.now());
    w.f64(initial_dev_sq);
    w.u64(result.trace.size());
    for (const auto& [tx, err] : result.trace) {
      w.u64(tx);
      w.f64(err);
    }
    rng.save(w);
    protocol.snapshot(w);
    checkpoints.persist(w.bytes(), clock.ticks_elapsed());
  };

  while (clock.ticks_elapsed() < config.max_ticks) {
    const Tick tick = clock.next();
    protocol.on_tick(tick);

    const double dev_sq = protocol.deviation_sq();
    if (config.trace_interval != 0 &&
        (tick.index + 1) % config.trace_interval == 0) {
      result.trace.emplace_back(protocol.meter().total(),
                                std::sqrt(dev_sq / initial_dev_sq));
    }
    if (dev_sq <= target_dev_sq) {
      result.converged = true;
      result.ticks = clock.ticks_elapsed();
      result.model_time = clock.now();
      result.final_error = std::sqrt(dev_sq / initial_dev_sq);
      result.transmissions = protocol.meter().snapshot();
      return result;
    }

    if (!snapshotting) continue;
    // Snapshots are taken after the convergence check, so a converging run
    // never persists its final tick.  Both cadences are pure reads of the
    // run state: results with and without snapshotting are bit-identical.
    bool due = checkpoints.every_ticks > 0 &&
               (tick.index + 1) % checkpoints.every_ticks == 0;
    if (!due && checkpoints.every_seconds > 0.0 &&
        (tick.index + 1) % kWallPollTicks == 0) {
      const auto wall = std::chrono::steady_clock::now();
      const std::chrono::duration<double> since = wall - last_snapshot;
      due = since.count() >= checkpoints.every_seconds;
    }
    if (due) {
      take_snapshot();
      last_snapshot = std::chrono::steady_clock::now();
    }
  }

  result.converged = false;
  result.ticks = clock.ticks_elapsed();
  result.model_time = clock.now();
  result.final_error =
      std::sqrt(protocol.deviation_sq() / initial_dev_sq);
  result.transmissions = protocol.meter().snapshot();
  return result;
}

}  // namespace geogossip::sim
