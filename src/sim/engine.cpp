#include "sim/engine.hpp"

#include <chrono>
#include <cmath>
#include <sstream>

#include "support/check.hpp"
#include "support/snapshot.hpp"
#include "support/string_util.hpp"

namespace geogossip::sim {

namespace {

/// Leading tag of every run snapshot payload, tick loop or round loop;
/// restore_run rejects payloads from other producers up front.
constexpr std::string_view kRunPayloadTag = "geogossip-engine-run";

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

bool Checkpointer::due(std::uint64_t steps) const {
  if (policy_->every_ticks > 0 && steps % policy_->every_ticks == 0) {
    return true;
  }
  if (policy_->every_seconds <= 0.0 || steps % wall_poll_steps_ != 0) {
    return false;
  }
  const std::chrono::duration<double> since =
      std::chrono::steady_clock::now() - last_snapshot_;
  return since.count() >= policy_->every_seconds;
}

void Checkpointer::persist(const GossipProtocol& protocol, const Rng& rng,
                           const RunProgress& progress) {
  SnapshotWriter w;
  w.str(kRunPayloadTag);
  w.str(protocol.name());
  w.u64(protocol.values().size());
  w.u64(progress.steps);
  w.f64(progress.model_time);
  w.f64(progress.initial_dev_sq);
  w.u64(progress.trace.size());
  for (const auto& [tx, err] : progress.trace) {
    w.u64(tx);
    w.f64(err);
  }
  rng.save(w);
  protocol.snapshot(w);
  policy_->persist(w.bytes(), progress.steps);
  last_snapshot_ = std::chrono::steady_clock::now();
}

RunProgress restore_run(std::string_view payload, GossipProtocol& protocol,
                        Rng& rng) {
  SnapshotReader r(payload);
  GG_CHECK_ARG(r.str() == kRunPayloadTag,
               "restore_run: resume payload is not a run snapshot");
  const std::string snap_name = r.str();
  GG_CHECK_ARG(snap_name == protocol.name(),
               "restore_run: snapshot is for protocol '" + snap_name +
                   "', not '" + std::string(protocol.name()) + "'");
  GG_CHECK_ARG(r.u64() == protocol.values().size(),
               "restore_run: snapshot n mismatch");
  RunProgress progress;
  progress.steps = r.u64();
  progress.model_time = r.f64();
  progress.initial_dev_sq = r.f64();
  const std::uint64_t trace_count = r.u64();
  progress.trace.reserve(trace_count);
  for (std::uint64_t i = 0; i < trace_count; ++i) {
    const std::uint64_t tx = r.u64();
    const double err = r.f64();
    progress.trace.emplace_back(tx, err);
  }
  rng.restore(r);
  protocol.restore(r);
  r.finish();
  return progress;
}

RunResult run_to_epsilon(GossipProtocol& protocol, Rng& rng,
                         const RunConfig& config,
                         const CheckpointPolicy& checkpoints,
                         std::string_view resume) {
  GG_CHECK_ARG(config.epsilon > 0.0, "run_to_epsilon: epsilon > 0");
  GG_CHECK_ARG(config.max_ticks > 0, "run_to_epsilon: max_ticks must be set");

  const auto n = static_cast<std::uint32_t>(protocol.values().size());
  GG_CHECK_ARG(n >= 1, "run_to_epsilon: protocol has no values");

  RunResult result;
  AsyncClock clock(n, rng);
  RunProgress progress;

  if (!resume.empty()) {
    progress = restore_run(resume, protocol, rng);
    clock.restore(progress.model_time, progress.steps);
  } else {
    progress.initial_dev_sq = protocol.deviation_sq();
    if (progress.initial_dev_sq <= 0.0) {
      // Already exactly averaged (constant field); nothing to do.
      result.converged = true;
      result.final_error = 0.0;
      result.transmissions = protocol.meter().snapshot();
      return result;
    }
  }

  const double initial_dev_sq = progress.initial_dev_sq;
  // The criterion err <= epsilon compares squared quantities, sqrt-free.
  const double target_dev_sq =
      config.epsilon * config.epsilon * initial_dev_sq;

  const bool snapshotting = checkpoints.enabled();
  Checkpointer checkpointer(checkpoints, kWallPollTicks);
  double dev_sq = protocol.deviation_sq();
  while (clock.ticks_elapsed() < config.max_ticks) {
    const Tick tick = clock.next();
    protocol.on_tick(tick);

    dev_sq = protocol.deviation_sq();
    if (dev_sq <= target_dev_sq) break;

    // Snapshots are taken after the convergence check, so a converging run
    // never persists its final tick.
    if (!snapshotting || !checkpointer.due(tick.index + 1)) continue;
    progress.steps = clock.ticks_elapsed();
    progress.model_time = clock.now();
    checkpointer.persist(protocol, rng, progress);
  }

  result.converged = dev_sq <= target_dev_sq;
  result.ticks = clock.ticks_elapsed();
  result.model_time = clock.now();
  result.final_error = std::sqrt(dev_sq / initial_dev_sq);
  result.transmissions = protocol.meter().snapshot();
  return result;
}

}  // namespace geogossip::sim
