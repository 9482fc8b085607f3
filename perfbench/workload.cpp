// Workload definitions, replicate preparation/replay through the public
// protocol API, output checks and the Runner-driven workload run.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/decentralized.hpp"
#include "core/hierarchy_protocol.hpp"
#include "core/multilevel.hpp"
#include "exp/sink.hpp"
#include "gossip/base.hpp"
#include "gossip/geographic.hpp"
#include "gossip/pairwise.hpp"
#include "gossip/path_averaging.hpp"
#include "perfbench.hpp"
#include "sim/field.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

using gg::core::ProtocolKind;

namespace {

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto to_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

/// The engine tick budget run_protocol_trial applies when
/// TrialOptions::max_ticks is 0.  Only a replicate that misses epsilon
/// reaches it; finish() results are compared against the Runner's, so a
/// drift between this copy and the library's shows as a replay mismatch.
std::uint64_t default_tick_cap(ProtocolKind kind, std::size_t n, double eps) {
  const double nn = static_cast<double>(n);
  const double log_eps = std::log(1.0 / eps);
  switch (kind) {
    case ProtocolKind::kBoydPairwise:
      return static_cast<std::uint64_t>(64.0 * nn * nn * log_eps /
                                        std::log(nn));
    case ProtocolKind::kDimakisGeographic:
    case ProtocolKind::kPathAveraging:
      return static_cast<std::uint64_t>(256.0 * nn * log_eps);
    case ProtocolKind::kAffineAsync:
    case ProtocolKind::kAffineDecentralized:
      return static_cast<std::uint64_t>(4096.0 * nn * log_eps *
                                        std::log(nn));
    case ProtocolKind::kAffineOneLevel:
    case ProtocolKind::kAffineMultilevel:
      return 0;
  }
  return 0;
}

void fnv_mix(std::uint64_t& hash, std::string_view text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
}

std::uint64_t label_hash(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  fnv_mix(hash, text);
  return hash;
}

std::string hexfloat(double value) {
  std::ostringstream os;
  os << std::hexfloat << value;
  return os.str();
}

}  // namespace

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t op_seed(std::uint64_t master, std::string_view workload,
                      std::string_view layer, std::uint64_t k) noexcept {
  const std::uint64_t w = gg::derive_seed(master, label_hash(workload));
  return gg::derive_seed(gg::derive_seed(w, label_hash(layer)), k);
}

bool routes(ProtocolKind kind) noexcept {
  return kind != ProtocolKind::kBoydPairwise;
}

bool round_based(ProtocolKind kind) noexcept {
  return kind == ProtocolKind::kAffineOneLevel ||
         kind == ProtocolKind::kAffineMultilevel;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"dimakis-8k", "family-sweep",
                                              "multilevel-512k"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  const unsigned hw = gg::ThreadPool::hardware_threads();
  Workload w;
  w.name = name;
  w.scenario.name = name;
  w.scenario.master_seed = seed;
  w.threads = hw;
  if (name == "dimakis-8k") {
    // One replicate, so the pool has nothing to overlap it with.
    w.scenario.replicates = 1;
    w.scenario.add(ProtocolKind::kDimakisGeographic, 8192);
    w.setup_reps = 15;
  } else if (name == "family-sweep") {
    w.scenario.replicates = 16;
    for (const ProtocolKind kind :
         {ProtocolKind::kBoydPairwise, ProtocolKind::kPathAveraging,
          ProtocolKind::kAffineOneLevel, ProtocolKind::kAffineMultilevel,
          ProtocolKind::kAffineDecentralized}) {
      for (const std::size_t n : {std::size_t{1024}, std::size_t{4096}}) {
        w.scenario.add(kind, n);
      }
    }
    w.scenario.add(ProtocolKind::kAffineAsync, 1024);
    w.scenario.add(ProtocolKind::kDimakisGeographic, 1024);
    // At the default multiplier 1.2 some replicates never reach epsilon
    // and spend their whole tick budget: about 1 in 64 of affine-async
    // (stalls near 1e-2) and of affine-decentral (turns NaN) at n = 1024,
    // and about 1 in 160 of boyd at n = 4096.  At 1.5 about 1 in 1500
    // affine-async/decentral replicates still did.  At 2.0 none did in
    // over 2500 replicates of each of these cells.
    for (auto& cell : w.scenario.cells) cell.radius_multiplier = 2.0;
    w.stream_records = true;
    // Every snapshot is an fsync.  At 200 000 ticks the sweep wrote about
    // 390 of them, which added about 0.7 s to a 3.5 s pass and made the
    // wall time follow the disk load of other tenants.  At 2 000 000 ticks
    // the longest boyd replicates still write about 16, so the write path
    // stays exercised at a negligible cost.
    w.snapshot_every_ticks = 2000000;
    // The first pass of a process ran about 20% slower (idle CPU while the
    // pool, allocator arenas and output files settle).
    w.warmup_runs = 1;
    w.setup_reps = 15;
    w.check_single_thread = true;
  } else if (name == "multilevel-512k") {
    // Two waves of four: with one wave the slowest of four replicates set
    // the wall time, and that straggler varied too much between seeds.
    w.scenario.replicates = 8;
    w.scenario.add(ProtocolKind::kAffineMultilevel, std::size_t{1} << 19);
    w.threads = std::min(hw, 4u);
  } else {
    throw gg::ArgumentError("unknown workload '" + name + "'");
  }
  for (auto& cell : w.scenario.cells) cell.options.eps = kEpsilon;
  return w;
}

std::unique_ptr<Prepared> prepare(const gg::exp::Cell& cell,
                                  std::uint64_t seed) {
  GG_CHECK_ARG(cell.field == gg::exp::CellField::kSpikedGaussian,
               "prepare: benchmark cells use the spiked-gaussian field");
  auto p = std::make_unique<Prepared>(seed);
  auto start = std::chrono::steady_clock::now();
  p->graph.emplace(gg::graph::GeometricGraph::sample(
      cell.n, cell.radius_multiplier, p->rng));
  p->graph_s = seconds_since(start);
  if (routes(cell.kind)) {
    // The Runner builds the mirror lazily on the first route; building it
    // here first draws no randomness, so the trajectory is unchanged.
    start = std::chrono::steady_clock::now();
    p->graph->ensure_routing_mirror();
    p->mirror_s = seconds_since(start);
  }

  start = std::chrono::steady_clock::now();
  auto x0 = gg::sim::gaussian_field(cell.n, p->rng);
  x0[p->rng.below(cell.n)] += std::sqrt(static_cast<double>(cell.n));
  gg::sim::center_and_normalize(x0);
  p->field_s = seconds_since(start);

  const auto& graph = *p->graph;
  const auto& options = cell.options;
  start = std::chrono::steady_clock::now();
  switch (cell.kind) {
    case ProtocolKind::kBoydPairwise:
      p->tick_protocol = std::make_unique<gg::gossip::PairwiseGossip>(
          graph, std::move(x0), p->rng);
      break;
    case ProtocolKind::kDimakisGeographic:
      p->tick_protocol = std::make_unique<gg::gossip::GeographicGossip>(
          graph, std::move(x0), p->rng, options.geographic);
      break;
    case ProtocolKind::kPathAveraging:
      p->tick_protocol = std::make_unique<gg::gossip::PathAveragingGossip>(
          graph, std::move(x0), p->rng);
      break;
    case ProtocolKind::kAffineAsync: {
      gg::core::HierarchyProtocolConfig config = options.async_protocol;
      config.eps = options.eps;
      p->tick_protocol = std::make_unique<gg::core::HierarchicalAffineProtocol>(
          graph, std::move(x0), p->rng, config);
      break;
    }
    case ProtocolKind::kAffineDecentralized:
      p->tick_protocol =
          std::make_unique<gg::core::DecentralizedAffineGossip>(
              graph, std::move(x0), p->rng, options.decentralized);
      break;
    case ProtocolKind::kAffineOneLevel:
    case ProtocolKind::kAffineMultilevel: {
      gg::core::MultilevelConfig config = options.multilevel;
      config.eps = options.eps;
      if (cell.kind == ProtocolKind::kAffineOneLevel) config.max_depth = 1;
      p->round_protocol = std::make_unique<gg::core::MultilevelAffineGossip>(
          graph, std::move(x0), p->rng, config);
      break;
    }
  }
  p->protocol_s = seconds_since(start);
  return p;
}

Replay finish(Prepared& prepared, const gg::exp::Cell& cell) {
  Replay replay;
  const auto start = std::chrono::steady_clock::now();
  if (prepared.round_protocol) {
    const auto result = prepared.round_protocol->run();
    replay.top_rounds = result.top_rounds;
    replay.transmissions = result.transmissions;
  } else {
    gg::sim::RunConfig config;
    config.epsilon = cell.options.eps;
    config.max_ticks = cell.options.max_ticks != 0
                           ? cell.options.max_ticks
                           : default_tick_cap(cell.kind, cell.n,
                                              cell.options.eps);
    const auto run =
        gg::sim::run_to_epsilon(*prepared.tick_protocol, prepared.rng, config);
    replay.ticks = run.ticks;
    replay.transmissions = run.transmissions;
    if (const auto* value = dynamic_cast<const gg::gossip::ValueProtocol*>(
            prepared.tick_protocol.get())) {
      replay.refreshes = value->tracker_refreshes();
    }
  }
  replay.run_s = seconds_since(start);
  return replay;
}

std::string check_replicate(const gg::exp::ReplicateResult& result) {
  if (!result.converged) return "did not converge within its budget";
  if (!(result.final_error <= kEpsilon)) {
    return "final_error " + hexfloat(result.final_error) + " > epsilon";
  }
  if (!(std::abs(result.sum_drift) <= kSumDriftTolerance)) {
    return "|sum_drift| " + hexfloat(result.sum_drift) + " > tolerance";
  }
  std::uint64_t categories = 0;
  for (const auto count : result.transmissions.by_category) {
    categories += count;
  }
  if (categories != result.transmissions.total() || categories == 0) {
    return "transmission categories do not sum to a positive total";
  }
  return {};
}

std::uint64_t records_digest(const gg::exp::SweepSummary& summary) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& cs : summary.cells) {
    for (const auto& r : cs.raw) {
      std::ostringstream line;
      line << cs.cell_index << ' ' << r.seed << ' ' << r.converged << ' '
           << hexfloat(r.final_error) << ' ' << hexfloat(r.sum_drift);
      for (const auto count : r.transmissions.by_category) {
        line << ' ' << count;
      }
      line << ' ' << r.far_exchanges << ' ' << r.near_exchanges;
      for (const auto& [key, value] : r.metrics) {
        line << ' ' << key << '=' << hexfloat(value);
      }
      line << '\n';
      fnv_mix(hash, line.str());
    }
  }
  return hash;
}

RunOutcome run_workload(const Workload& workload, const std::string& out_dir,
                        unsigned threads) {
  gg::exp::RunnerOptions options;
  options.threads = threads != 0 ? threads : workload.threads;
  options.keep_replicates = true;
  std::unique_ptr<gg::exp::JsonLinesSink> sink;
  if (workload.stream_records) {
    sink = std::make_unique<gg::exp::JsonLinesSink>(out_dir +
                                                    "/records.jsonl");
    options.progress = [&](const gg::exp::Cell& cell, std::size_t cell_index,
                           std::uint32_t replicate,
                           const gg::exp::ReplicateResult& result) {
      sink->write_replicate(workload.scenario.name,
                            workload.scenario.master_seed, cell, cell_index,
                            replicate, result);
    };
  }
  if (workload.snapshot_every_ticks > 0) {
    options.snapshot_dir = out_dir + "/snapshots";
    options.snapshot_every_ticks = workload.snapshot_every_ticks;
  }
  const gg::exp::Runner runner(options);

  RunOutcome outcome;
  const double cpu_before = cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  outcome.summary = runner.run(workload.scenario);
  outcome.wall_s = seconds_since(start);
  outcome.cpu_s = cpu_seconds() - cpu_before;

  for (const auto& cs : outcome.summary.cells) {
    for (std::size_t r = 0; r < cs.raw.size(); ++r) {
      const auto& result = cs.raw[r];
      ++outcome.replicates;
      outcome.tx_total += result.transmissions.total();
      const std::string problem = check_replicate(result);
      if (!problem.empty()) {
        ++outcome.failed;
        outcome.failures.push_back(cs.cell.label + "@" +
                                   std::to_string(cs.cell.n) + " replicate " +
                                   std::to_string(r) + ": " + problem);
      }
    }
  }
  outcome.digest = records_digest(outcome.summary);
  if (sink) {
    // Every replicate must have reached the stream, one line each.
    sink.reset();
    std::ifstream in(out_dir + "/records.jsonl");
    const auto lines = static_cast<std::uint64_t>(
        std::count(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>(), '\n'));
    if (lines != outcome.replicates) {
      outcome.failures.push_back("records.jsonl holds " +
                                 std::to_string(lines) + " lines for " +
                                 std::to_string(outcome.replicates) +
                                 " replicates");
    }
  }
  return outcome;
}

}  // namespace perfbench
