// Traced mode: per-layer metrics and the reconcile report.
//
// Counts come from the traced Runner::run (the library's own spans and
// counters) and from a replay of every replicate through the public
// protocol API (engine ticks, top rounds and tracker refreshes, which the
// library does not count).  Unit costs come from micro-timings with a
// fixed op count on the workload's own graphs; op k of a layer draws its
// inputs from op_seed(master, workload, layer, k).  The reconcile report
// multiplies unit costs by counts and compares the sum with the traced
// protocol_run self time.
#include <algorithm>
#include <cstring>
#include <iomanip>
#include <mutex>
#include <ostream>

#include "exp/sink.hpp"
#include "exp/snapshot_store.hpp"
#include "obs/telemetry.hpp"
#include "routing/greedy.hpp"
#include "sim/clock.hpp"
#include "sim/deviation_tracker.hpp"
#include "perfbench.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

using gg::core::ProtocolKind;
using Clock = std::chrono::steady_clock;

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics{
      {"graph.build_ms", "ms", "lower",
       "setup_s on multilevel-512k (near nothing on dimakis-8k)"},
      {"graph.mirror_ms", "ms", "lower",
       "setup_s on multilevel-512k (near nothing on dimakis-8k)"},
      {"graph.edges", "count", "lower", "peak_rss_mb on multilevel-512k"},
      {"graph.mb", "MB", "lower", "peak_rss_mb on multilevel-512k"},
      {"routing.routes", "count", "lower", "wall_s on dimakis-8k"},
      {"routing.hops", "count", "lower", "wall_s on dimakis-8k"},
      {"routing.hops_per_route", "ratio", "lower", "wall_s on dimakis-8k"},
      {"routing.route_ns", "ns", "lower",
       "wall_s on dimakis-8k; on multilevel-512k's graph, wall_s there"},
      {"routing.ns_per_hop", "ns", "lower",
       "wall_s on dimakis-8k; on multilevel-512k's graph, wall_s there"},
      {"routing.dead_end_share", "share", "lower", "wall_s on dimakis-8k"},
      {"gossip.acceptance_setup_ms", "ms", "lower",
       "setup_s and wall_s on dimakis-8k"},
      {"gossip.tick_ns", "ns", "lower", "wall_s and tx_total on dimakis-8k"},
      {"gossip.acceptance_rate", "ratio", "higher",
       "wall_s and tx_total on dimakis-8k"},
      {"gossip.routes_per_exchange", "ratio", "lower",
       "wall_s and tx_total on dimakis-8k"},
      {"gossip.giveup_share", "share", "lower",
       "wall_s and tx_total on dimakis-8k"},
      {"core.multilevel_ctor_ms", "ms", "lower", "setup_s on multilevel-512k"},
      {"core.multilevel_run_s", "s", "lower", "wall_s on multilevel-512k"},
      {"core.top_rounds", "count", "lower", "wall_s on multilevel-512k"},
      {"core.async_tick_ns", "ns", "lower", "wall_s on family-sweep"},
      {"core.decentralized_tick_ns", "ns", "lower", "wall_s on family-sweep"},
      {"sim.ticks", "count", "lower", "wall_s on family-sweep and dimakis-8k"},
      {"sim.ns_per_tick.boyd", "ns", "lower", "wall_s on family-sweep"},
      {"sim.ns_per_tick.dimakis", "ns", "lower",
       "wall_s on dimakis-8k and family-sweep"},
      {"sim.ns_per_tick.path-avg", "ns", "lower", "wall_s on family-sweep"},
      {"sim.ns_per_tick.affine-async", "ns", "lower", "wall_s on family-sweep"},
      {"sim.ns_per_tick.affine-decentral", "ns", "lower",
       "wall_s on family-sweep"},
      {"sim.check_ns", "ns", "lower", "wall_s on family-sweep and dimakis-8k"},
      {"sim.clock_ns", "ns", "lower", "wall_s on family-sweep and dimakis-8k"},
      {"sim.tracker_refreshes", "count", "lower",
       "wall_s on family-sweep and dimakis-8k"},
      {"exp.record_write_us", "us", "lower", "wall_s on family-sweep"},
      {"exp.snapshot_write_ms", "ms", "lower", "wall_s on family-sweep"},
      {"exp.snapshots", "count", "lower", "wall_s on family-sweep"},
      {"exp.snapshot_kb", "KiB", "lower", "wall_s on family-sweep"},
      {"exp.worker_busy_share", "share", "higher",
       "wall_s on family-sweep and multilevel-512k"},
      {"exp.cpu_util", "share", "higher",
       "reported, not gated: a parallel PR may spend CPU to cut wall_s"},
      {"obs.trace_overhead_share", "share", "lower", "reported, not gated"},
      {"obs.dropped_events", "count", "lower",
       "reported, not gated; must be 0"},
      {"reconcile.explained_share", "share", "higher",
       "reported: how much of protocol_run self time the layers explain"},
  };
  return metrics;
}

namespace {

/// Events per thread for the traced run; a run that still drops events is
/// rejected, never silently under-counted.
constexpr std::size_t kTraceRingCapacity = std::size_t{1} << 18;

/// Fixed op counts of the micro-timings.
constexpr std::uint64_t kRouteOps = 8192;
constexpr int kRoutePasses = 3;
constexpr std::uint64_t kEngineOps = std::uint64_t{1} << 20;
constexpr int kRefreshOps = 64;
constexpr std::uint64_t kRecordOps = 2048;
constexpr int kSnapshotOps = 16;

std::uint64_t tick_ops(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kDimakisGeographic:
    case ProtocolKind::kPathAveraging:
      return 4096;
    case ProtocolKind::kBoydPairwise:
      return std::uint64_t{1} << 18;
    default:
      return std::uint64_t{1} << 17;
  }
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

bool named(const gg::obs::Event& e, const char* name) {
  return e.name != nullptr && std::strcmp(e.name, name) == 0;
}

struct TraceView {
  std::map<std::string, std::uint64_t> span_count;
  std::map<std::string, double> span_ns;
  /// protocol_run time minus the spans nested inside it on its thread.
  double protocol_self_ns = 0.0;
  std::map<std::int64_t, std::uint64_t> snapshots_by_cell;
};

TraceView analyse(const gg::obs::Snapshot& snap) {
  TraceView view;
  std::map<std::uint32_t, std::vector<const gg::obs::Event*>> by_tid;
  for (const auto& e : snap.events) {
    const std::string name = e.name == nullptr ? "?" : e.name;
    ++view.span_count[name];
    view.span_ns[name] += static_cast<double>(e.end_ns - e.start_ns);
    if (named(e, "snapshot_write")) ++view.snapshots_by_cell[e.arg_a];
    by_tid[e.tid].push_back(&e);
  }
  for (auto& [tid, events] : by_tid) {
    std::sort(events.begin(), events.end(),
              [](const gg::obs::Event* a, const gg::obs::Event* b) {
                return a->start_ns < b->start_ns;
              });
    for (std::size_t i = 0; i < events.size(); ++i) {
      const auto& run = *events[i];
      if (!named(run, "protocol_run")) continue;
      double self = static_cast<double>(run.end_ns - run.start_ns);
      for (std::size_t j = i + 1;
           j < events.size() && events[j]->start_ns < run.end_ns; ++j) {
        if (events[j]->end_ns <= run.end_ns) {
          self -= static_cast<double>(events[j]->end_ns -
                                      events[j]->start_ns);
        }
      }
      view.protocol_self_ns += self;
    }
  }
  return view;
}

/// Index of the cell of `kinds` with the largest n, or -1.
int largest_cell(const gg::exp::Scenario& scenario,
                 std::initializer_list<ProtocolKind> kinds) {
  int best = -1;
  for (std::size_t c = 0; c < scenario.cells.size(); ++c) {
    const auto& cell = scenario.cells[c];
    if (std::find(kinds.begin(), kinds.end(), cell.kind) == kinds.end()) {
      continue;
    }
    if (best < 0 || cell.n > scenario.cells[best].n) best = static_cast<int>(c);
  }
  return best;
}

struct Captured {};

/// The engine payload of the first snapshot a fresh replicate 0 of `cell`
/// would persist.
std::string capture_payload(const gg::exp::Cell& cell, std::uint64_t seed) {
  const auto prepared = prepare(cell, seed);
  std::string payload;
  gg::sim::CheckpointPolicy policy;
  policy.every_ticks = 1;
  policy.persist = [&](std::string_view bytes, std::uint64_t) {
    payload.assign(bytes);
    throw Captured{};
  };
  gg::sim::RunConfig config;
  config.epsilon = cell.options.eps;
  config.max_ticks = std::uint64_t{1} << 20;
  try {
    if (prepared->round_protocol) {
      prepared->round_protocol->run(policy, {});
    } else {
      gg::sim::run_to_epsilon(*prepared->tick_protocol, prepared->rng, config,
                              policy, {});
    }
  } catch (const Captured&) {
  }
  return payload;
}

}  // namespace

LayerResult measure_layers(const LayerInputs& in, std::ostream& report) {
  const Workload& w = *in.workload;
  const auto& scenario = w.scenario;
  const std::size_t cells = scenario.cells.size();
  const RunOutcome& untraced = *in.untraced;
  LayerResult out;
  auto& m = out.metrics;
  const auto problem = [&](const std::string& text) {
    out.correct = false;
    out.problems.push_back(text);
  };

  // ---- set-up of each cell's replicate 0: graph sizes and ctor costs ----
  std::vector<std::unique_ptr<Prepared>> prepared;
  double edges = 0.0;
  double graph_bytes = 0.0;
  for (std::size_t c = 0; c < cells; ++c) {
    const auto& cell = scenario.cells[c];
    prepared.push_back(prepare(
        cell, gg::exp::replicate_seed(scenario.master_seed, c, 0)));
    const auto& graph = *prepared.back()->graph;
    const double arcs =
        2.0 * static_cast<double>(graph.adjacency().edge_count());
    const double nodes = static_cast<double>(graph.node_count());
    edges += 0.5 * arcs;
    // Points, CSR offsets and targets, plus the 8-byte/arc routing mirror.
    graph_bytes += 16.0 * nodes + 8.0 * (nodes + 1.0) + 4.0 * arcs +
                   (routes(cell.kind) ? 8.0 * arcs : 0.0);
  }
  m["graph.edges"] = edges;
  m["graph.mb"] = graph_bytes / (1024.0 * 1024.0);
  const auto ctor_ms = [&](int c) {
    return c < 0 ? 0.0 : 1e3 * prepared[c]->protocol_s;
  };
  const int dimakis_cell =
      largest_cell(scenario, {ProtocolKind::kDimakisGeographic});
  m["gossip.acceptance_setup_ms"] = ctor_ms(dimakis_cell);
  int multi_cell = largest_cell(scenario, {ProtocolKind::kAffineMultilevel});
  if (multi_cell < 0) {
    multi_cell = largest_cell(scenario, {ProtocolKind::kAffineOneLevel});
  }
  m["core.multilevel_ctor_ms"] = ctor_ms(multi_cell);

  // ---- traced run ----
  gg::obs::set_ring_capacity(kTraceRingCapacity);
  gg::obs::reset();
  gg::obs::set_enabled(true);
  const RunOutcome traced = run_workload(w, in.out_dir);
  gg::obs::set_enabled(false);
  const gg::obs::Snapshot snap = gg::obs::snapshot();
  if (traced.digest != untraced.digest) {
    problem("traced run records differ from the untraced run's");
  }
  m["obs.dropped_events"] = static_cast<double>(snap.dropped_events);
  m["obs.trace_overhead_share"] = traced.wall_s / untraced.wall_s - 1.0;
  if (snap.dropped_events > 0) {
    problem("traced run dropped " + std::to_string(snap.dropped_events) +
            " events; its per-layer numbers are rejected");
  }
  const TraceView view = analyse(snap);
  const auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto span_mean_ms = [&](const char* name) {
    const auto it = view.span_count.find(name);
    return it == view.span_count.end()
               ? 0.0
               : view.span_ns.at(name) / 1e6 / static_cast<double>(it->second);
  };
  m["graph.build_ms"] = span_mean_ms("graph_build");
  m["graph.mirror_ms"] = span_mean_ms("routing_mirror");
  const double routes_count = counter("routing.routes");
  const double hops = counter("routing.hops");
  m["routing.routes"] = routes_count;
  m["routing.hops"] = hops;
  m["routing.hops_per_route"] = routes_count > 0 ? hops / routes_count : 0.0;
  m["routing.dead_end_share"] =
      routes_count > 0 ? counter("routing.dead_ends") / routes_count : 0.0;
  const double tx_counted =
      counter("tx.local") + counter("tx.long_range") + counter("tx.control");
  if (tx_counted != static_cast<double>(untraced.tx_total)) {
    problem("tx.* counters sum to " + std::to_string(tx_counted) +
            ", records to " + std::to_string(untraced.tx_total));
  }
  m["exp.snapshots"] =
      view.span_count.count("snapshot_write") != 0
          ? static_cast<double>(view.span_count.at("snapshot_write"))
          : 0.0;
  const double replicate_ns =
      view.span_ns.count("replicate") != 0 ? view.span_ns.at("replicate") : 0.0;
  m["exp.worker_busy_share"] =
      replicate_ns / 1e9 / (static_cast<double>(w.threads) * traced.wall_s);
  m["exp.cpu_util"] =
      untraced.cpu_s / (untraced.wall_s * static_cast<double>(w.threads));

  // ---- replay: ticks, top rounds and refreshes per replicate ----
  struct CellCounts {
    std::uint64_t ticks = 0;
    std::uint64_t top_rounds = 0;
    std::uint64_t refreshes = 0;
    double run_s = 0.0;
    double ctor_s = 0.0;
  };
  std::vector<CellCounts> per_cell(cells);
  std::mutex counts_mu;
  std::uint64_t mismatches = 0;
  const gg::ThreadPool pool(w.threads);
  pool.run(cells * scenario.replicates, [&](std::size_t task) {
    const std::size_t c = task / scenario.replicates;
    const auto r = static_cast<std::uint32_t>(task % scenario.replicates);
    const auto& cell = scenario.cells[c];
    auto replica = prepare(
        cell, gg::exp::replicate_seed(scenario.master_seed, c, r));
    const Replay replay = finish(*replica, cell);
    const auto& recorded = untraced.summary.cells[c].raw[r];
    std::lock_guard<std::mutex> lock(counts_mu);
    if (replay.transmissions.by_category !=
        recorded.transmissions.by_category) {
      ++mismatches;
    }
    auto& counts = per_cell[c];
    counts.ticks += replay.ticks;
    counts.top_rounds += replay.top_rounds;
    counts.refreshes += replay.refreshes;
    counts.run_s += replay.run_s;
    counts.ctor_s += replica->protocol_s;
  });
  if (mismatches > 0) {
    problem(std::to_string(mismatches) +
            " replayed replicates differ from the Runner's records");
  }
  double ticks = 0.0;
  double top_rounds = 0.0;
  double round_run_s = 0.0;
  double round_replicates = 0.0;
  double refreshes = 0.0;
  std::map<ProtocolKind, std::pair<double, double>> kind_ns_ticks;
  for (std::size_t c = 0; c < cells; ++c) {
    const auto& cell = scenario.cells[c];
    const auto& counts = per_cell[c];
    ticks += static_cast<double>(counts.ticks);
    refreshes += static_cast<double>(counts.refreshes);
    if (round_based(cell.kind)) {
      top_rounds += static_cast<double>(counts.top_rounds);
      round_run_s += counts.run_s;
      round_replicates += scenario.replicates;
    } else {
      auto& [ns, t] = kind_ns_ticks[cell.kind];
      ns += 1e9 * counts.run_s;
      t += static_cast<double>(counts.ticks);
    }
  }
  m["sim.ticks"] = ticks;
  m["sim.tracker_refreshes"] = counter("protocol.tracker_refreshes");
  if (refreshes != m["sim.tracker_refreshes"]) {
    problem("replayed tracker refreshes differ from the traced counter");
  }
  m["core.top_rounds"] = top_rounds;
  m["core.multilevel_run_s"] =
      round_replicates > 0 ? round_run_s / round_replicates : 0.0;
  for (const auto& [kind, ns_ticks] : kind_ns_ticks) {
    m["sim.ns_per_tick." + std::string(gg::core::protocol_kind_name(kind))] =
        ns_ticks.second > 0 ? ns_ticks.first / ns_ticks.second : 0.0;
  }

  // Dimakis target sampling: every draw ends as a failed route, a
  // rejection or an accepted target; an accepted target ends as an
  // exchange or a failed return route.
  const double exchanges = counter("gossip.exchanges");
  const double rejections = counter("gossip.acceptance_rejections");
  const double failed_routes = counter("gossip.failed_routes");
  const double draws = exchanges + rejections + failed_routes;
  if (exchanges > 0) {
    double dimakis_ticks = 0.0;
    for (std::size_t c = 0; c < cells; ++c) {
      if (scenario.cells[c].kind == ProtocolKind::kDimakisGeographic) {
        dimakis_ticks += static_cast<double>(per_cell[c].ticks);
      }
    }
    m["gossip.acceptance_rate"] = exchanges / draws;
    // Forward routes (one per draw) plus return routes (one per
    // exchange; exact while gossip.failed_routes is 0).
    m["gossip.routes_per_exchange"] = (draws + exchanges) / exchanges;
    m["gossip.giveup_share"] =
        std::max(0.0, dimakis_ticks - exchanges - failed_routes) /
        dimakis_ticks;
  }

  // ---- micro: routing on the workload's largest routing graph ----
  const int route_cell = largest_cell(
      scenario,
      {ProtocolKind::kDimakisGeographic, ProtocolKind::kPathAveraging,
       ProtocolKind::kAffineOneLevel, ProtocolKind::kAffineMultilevel,
       ProtocolKind::kAffineAsync, ProtocolKind::kAffineDecentralized});
  double ns_per_hop = 0.0;
  if (route_cell >= 0) {
    const auto& graph = *prepared[route_cell]->graph;
    // Round protocols route between fixed representatives; the others
    // route to uniform positions.
    const bool to_node = round_based(scenario.cells[route_cell].kind);
    const auto n = graph.node_count();
    std::vector<double> passes;
    std::uint64_t micro_hops = 0;
    for (int pass = 0; pass < kRoutePasses; ++pass) {
      micro_hops = 0;
      const auto start = Clock::now();
      for (std::uint64_t k = 0; k < kRouteOps; ++k) {
        gg::Rng rng(op_seed(in.seed, w.name, "routing", k));
        const auto source = static_cast<gg::graph::NodeId>(rng.below(n));
        const auto route =
            to_node ? gg::routing::route_to_node(
                          graph, source,
                          static_cast<gg::graph::NodeId>(rng.below(n)))
                    : gg::routing::route_to_position(
                          graph, source,
                          {rng.next_double(), rng.next_double()});
        micro_hops += route.hops;
      }
      passes.push_back(ns_between(start, Clock::now()));
    }
    std::sort(passes.begin(), passes.end());
    const double pass_ns = passes[passes.size() / 2];
    m["routing.route_ns"] = pass_ns / static_cast<double>(kRouteOps);
    ns_per_hop = micro_hops > 0 ? pass_ns / static_cast<double>(micro_hops)
                                : 0.0;
    m["routing.ns_per_hop"] = ns_per_hop;
  }

  // ---- micro: ticks of each tick-protocol cell, on its own graph ----
  std::vector<double> body_ns(cells, 0.0);
  const int async_cell = largest_cell(scenario, {ProtocolKind::kAffineAsync});
  const int decentral_cell =
      largest_cell(scenario, {ProtocolKind::kAffineDecentralized});
  int engine_cell = -1;
  for (std::size_t c = 0; c < cells; ++c) {
    const auto& cell = scenario.cells[c];
    auto* protocol = prepared[c]->tick_protocol.get();
    if (protocol == nullptr) continue;
    if (engine_cell < 0 || cell.n > scenario.cells[engine_cell].n) {
      engine_cell = static_cast<int>(c);
    }
    gg::Rng clock_rng(op_seed(in.seed, w.name,
                              "tick:" + cell.label + "@" +
                                  std::to_string(cell.n),
                              0));
    gg::sim::AsyncClock clock(static_cast<std::uint32_t>(cell.n), clock_rng);
    // Ticks are drawn up front: the clock is timed on its own below.
    std::vector<gg::sim::Tick> ticks_in(tick_ops(cell.kind));
    for (auto& tick : ticks_in) tick = clock.next();
    const auto ops = static_cast<double>(ticks_in.size());
    // Counters on (no spans fire inside a tick) to learn the hops the
    // ticks routed, so routing is not counted twice in the reconcile.
    gg::obs::reset();
    gg::obs::set_enabled(true);
    const auto start = Clock::now();
    for (const auto& tick : ticks_in) protocol->on_tick(tick);
    const double ns = ns_between(start, Clock::now());
    gg::obs::set_enabled(false);
    const auto counters = gg::obs::snapshot().counters;
    const auto hops_it = counters.find("routing.hops");
    const double tick_hops =
        hops_it == counters.end() ? 0.0 : static_cast<double>(hops_it->second);
    const double per_tick = ns / ops;
    body_ns[c] = std::max(0.0, (ns - tick_hops * ns_per_hop) / ops);
    const auto index = static_cast<int>(c);
    if (index == dimakis_cell) m["gossip.tick_ns"] = per_tick;
    if (index == async_cell) m["core.async_tick_ns"] = per_tick;
    if (index == decentral_cell) m["core.decentralized_tick_ns"] = per_tick;
  }
  gg::obs::reset();

  // ---- micro: engine clock draw, convergence check, tracker refresh ----
  double refresh_ns_per_node = 0.0;
  if (engine_cell >= 0) {
    const auto& cell = scenario.cells[engine_cell];
    const auto& protocol = *prepared[engine_cell]->tick_protocol;
    gg::Rng clock_rng(op_seed(in.seed, w.name, "clock", 0));
    gg::sim::AsyncClock clock(static_cast<std::uint32_t>(cell.n), clock_rng);
    auto start = Clock::now();
    std::uint64_t owner_sum = 0;
    for (std::uint64_t k = 0; k < kEngineOps; ++k) {
      owner_sum += clock.next().node;
    }
    m["sim.clock_ns"] =
        ns_between(start, Clock::now()) / static_cast<double>(kEngineOps);

    volatile double sink = 0.0;
    start = Clock::now();
    for (std::uint64_t k = 0; k < kEngineOps; ++k) {
      sink = sink + protocol.deviation_sq();
    }
    m["sim.check_ns"] =
        ns_between(start, Clock::now()) / static_cast<double>(kEngineOps);

    gg::sim::DeviationTracker tracker;
    const auto values = protocol.values();
    start = Clock::now();
    for (int k = 0; k < kRefreshOps; ++k) tracker.reset(values);
    refresh_ns_per_node = ns_between(start, Clock::now()) /
                          (kRefreshOps * static_cast<double>(values.size()));
    sink = sink + tracker.deviation_sq() + static_cast<double>(owner_sum);
  }

  // ---- micro: record stream and snapshot writes ----
  if (w.stream_records) {
    std::vector<std::pair<std::size_t, const gg::exp::ReplicateResult*>>
        records;
    for (const auto& cs : untraced.summary.cells) {
      for (const auto& r : cs.raw) records.emplace_back(cs.cell_index, &r);
    }
    gg::exp::JsonLinesSink sink(in.out_dir + "/micro-records.jsonl");
    const auto start = Clock::now();
    for (std::uint64_t k = 0; k < kRecordOps; ++k) {
      const auto& [c, result] = records[k % records.size()];
      sink.write_replicate(scenario.name, scenario.master_seed,
                           scenario.cells[c], c,
                           static_cast<std::uint32_t>(k), *result);
    }
    m["exp.record_write_us"] = ns_between(start, Clock::now()) / 1e3 /
                               static_cast<double>(kRecordOps);
  }
  if (!view.snapshots_by_cell.empty()) {
    const auto busiest = std::max_element(
        view.snapshots_by_cell.begin(), view.snapshots_by_cell.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    const auto c = static_cast<std::size_t>(busiest->first);
    const std::uint64_t seed =
        gg::exp::replicate_seed(scenario.master_seed, c, 0);
    const std::string payload = capture_payload(scenario.cells[c], seed);
    m["exp.snapshot_kb"] = static_cast<double>(payload.size()) / 1024.0;
    const gg::exp::SnapshotStore store(in.out_dir + "/micro-snapshots",
                                       scenario.name, scenario.master_seed,
                                       0.0);
    const auto start = Clock::now();
    for (int k = 0; k < kSnapshotOps; ++k) {
      store.save(c, static_cast<std::uint32_t>(k), seed,
                 static_cast<std::uint64_t>(k), payload);
    }
    m["exp.snapshot_write_ms"] =
        ns_between(start, Clock::now()) / 1e6 / kSnapshotOps;
  }

  // ---- reconcile: unit costs x counts against protocol_run self time ----
  double setup_ms = 0.0;
  double bodies_ms = 0.0;
  double refresh_ms = 0.0;
  for (std::size_t c = 0; c < cells; ++c) {
    setup_ms += 1e3 * per_cell[c].ctor_s;
    bodies_ms += static_cast<double>(per_cell[c].ticks) * body_ns[c] / 1e6;
    refresh_ms += static_cast<double>(per_cell[c].refreshes) *
                  static_cast<double>(scenario.cells[c].n) *
                  refresh_ns_per_node / 1e6;
  }
  const std::vector<std::pair<std::string, double>> terms{
      {"routing     routing.hops x routing.ns_per_hop",
       hops * ns_per_hop / 1e6},
      {"gossip/core protocol constructors (replayed)", setup_ms},
      {"gossip/core tick bodies minus routing, x ticks", bodies_ms},
      {"sim         sim.ticks x (clock_ns + check_ns)",
       ticks * (m["sim.clock_ns"] + m["sim.check_ns"]) / 1e6},
      {"sim         tracker refreshes x n x ns/node", refresh_ms},
  };
  const double self_ms = view.protocol_self_ns / 1e6;
  double explained_ms = 0.0;
  report << "  reconcile " << w.name << ": protocol_run self time "
         << std::fixed << std::setprecision(1) << self_ms << " ms over "
         << (view.span_count.count("protocol_run") != 0
                 ? view.span_count.at("protocol_run")
                 : 0)
         << " runs\n";
  for (const auto& [label, ms] : terms) {
    explained_ms += ms;
    report << "    " << std::left << std::setw(50) << label << std::right
           << std::setw(12) << ms << " ms  " << std::setw(6)
           << (self_ms > 0 ? 100.0 * ms / self_ms : 0.0) << "%\n";
  }
  const double explained = self_ms > 0 ? explained_ms / self_ms : 0.0;
  report << "    explained " << 100.0 * explained << "%, unexplained "
         << 100.0 * (1.0 - explained) << "%\n";
  report.unsetf(std::ios::floatfield);
  report << std::setprecision(6);
  m["reconcile.explained_share"] = explained;

  for (const auto& metric : layer_metrics()) {
    const auto it = m.find(metric.name);
    report << "  " << std::left << std::setw(34) << metric.name << std::right
           << std::setw(16) << (it == m.end() ? 0.0 : it->second) << " "
           << std::left << std::setw(6) << metric.unit << "-> "
           << metric.moves << std::right << "\n";
  }
  return out;
}

}  // namespace perfbench
