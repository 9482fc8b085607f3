// Self-timed perf-kernel harness: times the simulator's hot paths across n
// and emits JSON, with no external benchmark dependency.  The committed
// BENCH_*.json trajectory is produced by this binary so perf regressions
// are visible PR over PR.
//
// Kernels:
//   graph_build            GeometricGraph::sample — two-pass CSR straight
//                          from the bucket grid, NO routing mirror (the
//                          non-routing-workload build cost)
//   graph_build_mt         same, node ranges fanned across a hardware-wide
//                          ThreadPool (equals graph_build on 1 core)
//   graph_build_routing    same + eager routing-ordered mirror (the cost a
//                          routing workload amortizes)
//   nearest_query          expanding-ring nearest-node lookup
//   route_to_node          greedy geographic route between random pairs
//   gossip_tick_pairwise   one Boyd tick (neighbour pick + pair average)
//   gossip_tick_geographic one Dimakis tick (route + exchange + route back)
//   acceptance_setup       GeographicGossip construction (Voronoi weights)
//   convergence_check      one engine convergence test, as run_to_epsilon
//                          performs it per checkpoint
//   deviation_norm_exact   full O(n) recomputation (contrast baseline)
//   run_to_epsilon_*       end-to-end protocol construction + run to eps
//
// Every result row carries the process max-RSS high-water (obs::max_rss_kb)
// read right after the kernel finished: monotone over the run, so each row
// bounds the peak footprint of everything up to and including itself —
// the XL rows (--xl) are ordered smallest-to-largest so their deltas are
// attributable.  --filter=<substring> runs just the matching kernels
// (setup for non-matching blocks is skipped too), which is how the XL
// points are recorded one at a time.  --trace=FILE additionally records
// one telemetry span per timed kernel (plus the library's own graph/
// routing phase spans) and exports a Chrome/Perfetto trace.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "core/decentralized.hpp"
#include "core/hierarchy_protocol.hpp"
#include "gossip/geographic.hpp"
#include "gossip/pairwise.hpp"
#include "graph/geometric_graph.hpp"
#include "obs/memory.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "routing/greedy.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace gg = geogossip;

namespace {

struct KernelResult {
  std::string name;
  std::size_t n = 0;
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
  double total_ms = 0.0;
  /// Process max-RSS (KiB) right after this kernel; 0 if unavailable.
  std::uint64_t max_rss_kb = 0;
};

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Repeats `batch` (which runs a batch and returns its op count) until the
/// time budget is spent, then reports ns/op.  At least one batch always
/// runs, so expensive end-to-end kernels degrade to a single measurement.
template <typename Batch>
KernelResult time_kernel(const std::string& name, std::size_t n,
                         double budget_ms, Batch&& batch) {
  KernelResult result;
  result.name = name;
  result.n = n;
  const double start = now_ms();
  do {
    result.ops += batch();
    result.total_ms = now_ms() - start;
  } while (result.total_ms < budget_ms);
  result.ns_per_op =
      result.total_ms * 1e6 / static_cast<double>(result.ops);
  return result;
}

/// Optimizer sink: accumulating into a volatile keeps kernels observable.
volatile double g_sink = 0.0;

/// One convergence test exactly as run_to_epsilon performs it in the
/// library version this harness is built against: the O(1) incremental
/// read when the protocol exposes one, the historical O(n) exact
/// recomputation otherwise.  (The `requires` probe keeps this source
/// buildable against pre-overhaul checkouts, so before/after baselines
/// come from the very same harness.)
template <typename Protocol>
double engine_check(const Protocol& protocol, double initial_norm) {
  if constexpr (requires { protocol.deviation_sq(); }) {
    return protocol.deviation_sq();
  } else {
    return gg::sim::relative_error(protocol.values(), initial_norm);
  }
}

/// Samples G(n, r), threading BuildOptions (pool, eager mirror) through
/// when the library version exposes them — the dependent-name probe keeps
/// this harness buildable against the pre-PR-4 checkout, where the build
/// is serial and the mirror is always eager, so before/after numbers come
/// from the same harness source.
template <typename Graph = gg::graph::GeometricGraph>
Graph sample_graph(std::size_t n, double mult, gg::Rng& rng,
                   const gg::ThreadPool* pool = nullptr,
                   bool eager_mirror = false) {
  if constexpr (requires { typename Graph::BuildOptions; }) {
    typename Graph::BuildOptions options;
    options.pool = pool;
    options.eager_routing_mirror = eager_mirror;
    return Graph::sample(n, mult, rng, options);
  } else {
    (void)pool;
    (void)eager_mirror;
    return Graph::sample(n, mult, rng);
  }
}

/// Forces the routing mirror into existence (no-op on library versions
/// that build it during construction), so route kernels measure routing,
/// not the first route's lazy mirror build.
template <typename Graph>
void warm_routing_mirror(const Graph& graph) {
  if constexpr (requires { graph.ensure_routing_mirror(); }) {
    graph.ensure_routing_mirror();
  }
}

std::vector<double> make_field(std::size_t n, gg::Rng& rng) {
  auto x0 = gg::sim::gaussian_field(n, rng);
  gg::sim::center_and_normalize(x0);
  return x0;
}

constexpr double kEpsilon = 1e-3;
constexpr double kRadiusMultiplier = 2.0;
/// Convergence target of the XL end-to-end point (n = 2^20).  Looser than
/// kEpsilon on purpose: the XL replicate exists to pin the peak-RSS and
/// prove build + routing + protocol at 2^20 end to end, not to measure
/// the convergence rate (a 1e-3 run at 2^20 is hours of wall clock; the
/// rate curve lives in the n <= 4096 kernels).
constexpr double kXlEpsilon = 0.5;

std::uint64_t pairwise_tick_cap(std::size_t n) {
  return 200ull * static_cast<std::uint64_t>(n) * n;
}

std::uint64_t geographic_tick_cap(std::size_t n) {
  return 4096ull * static_cast<std::uint64_t>(n);
}

std::uint64_t state_machine_tick_cap(std::size_t n) {
  const double nn = static_cast<double>(n);
  return static_cast<std::uint64_t>(4096.0 * nn * std::log(1.0 / kEpsilon) *
                                    std::log(nn));
}

/// Filter-aware collector: run() times a kernel (and stamps its max-RSS)
/// only when the name passes --filter, and any() lets setup blocks skip
/// graph/protocol construction no surviving kernel needs.
struct Harness {
  std::string filter;
  double budget_ms = 250.0;
  std::vector<KernelResult> results;

  bool selected(const std::string& name) const {
    return filter.empty() || name.find(filter) != std::string::npos;
  }
  template <typename Names>
  bool any(const Names& names) const {
    for (const char* name : names) {
      if (selected(name)) return true;
    }
    return false;
  }
  // Braced lists don't deduce through the template.
  bool any(std::initializer_list<const char*> names) const {
    return any<std::initializer_list<const char*>>(names);
  }
  template <typename Batch>
  void run(const std::string& name, std::size_t n, Batch&& batch) {
    if (!selected(name)) return;
    {
      // One span per timed kernel (the whole batch loop): with --trace the
      // exported timeline shows each kernel's slice plus the library's own
      // graph_build / routing_mirror phase spans nested inside it.
      gg::obs::Span span(gg::obs::intern(name), "n",
                         static_cast<std::int64_t>(n));
      results.push_back(time_kernel(name, n, budget_ms, batch));
    }
    results.back().max_rss_kb = gg::obs::max_rss_kb();
  }
};

void append_json(std::ostream& os, const std::vector<KernelResult>& results,
                 bool quick) {
  os << "{\n  \"harness\": \"bench/kernels\",\n"
     << "  \"epsilon\": " << kEpsilon << ",\n"
     << "  \"xl_epsilon\": " << kXlEpsilon << ",\n"
     << "  \"radius_multiplier\": " << kRadiusMultiplier << ",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    os << "    {\"name\": \"" << r.name << "\", \"n\": " << r.n
       << ", \"ns_per_op\": " << r.ns_per_op << ", \"ops\": " << r.ops
       << ", \"total_ms\": " << r.total_ms
       << ", \"max_rss_kb\": " << r.max_rss_kb << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool xl = false;
  std::string json_path;
  std::string trace_path;
  Harness h;

  gg::ArgParser parser("kernels",
                       "Self-timed perf kernels over the simulation hot "
                       "paths; emits the BENCH_*.json trajectory.");
  parser.add_flag("quick", &quick,
                  "smaller n ladder and time budget (CI perf-smoke)");
  parser.add_flag("xl", &xl,
                  "add the XL ladder: graph builds at n = 2^17/2^18/2^20 "
                  "and one end-to-end geographic replicate at 2^20 "
                  "(epsilon " +
                      std::to_string(kXlEpsilon) +
                      "; expect minutes of wall clock and ~GBs of RSS)");
  parser.add_flag("json", &json_path, "write results as JSON to this path");
  parser.add_flag("trace", &trace_path,
                  "enable telemetry and write a Chrome/Perfetto trace of "
                  "the kernel run to this path");
  parser.add_flag("budget-ms", &h.budget_ms,
                  "time budget per micro kernel in milliseconds");
  parser.add_flag("filter", &h.filter,
                  "run only kernels whose name contains this substring");
  const auto parse = parser.parse(argc, argv);
  if (parse != gg::ParseResult::kOk) return gg::parse_exit_code(parse);
  if (quick) h.budget_ms = std::min(h.budget_ms, 120.0);
  if (!trace_path.empty()) gg::obs::set_enabled(true);

  const std::vector<std::size_t> micro_ns =
      quick ? std::vector<std::size_t>{256, 1024, 4096}
            : std::vector<std::size_t>{256, 1024, 4096, 16384};
  const std::vector<std::size_t> e2e_ns{1024, 4096};

  gg::ThreadPool hw_pool;  // hardware concurrency, for the _mt builds

  for (const std::size_t n : micro_ns) {
    // Every kernel gets its own fixed-seed stream: the self-timed build
    // loop advances its RNG a machine-speed-dependent number of times, so
    // sharing one stream would make the measured graph and query
    // sequences differ run-to-run and before-vs-after.
    gg::Rng build_rng(0x5eed0 + n);

    // graph_build: one op = one full G(n, r) construction (CSR only; a
    // non-routing workload never pays more than this).
    h.run("graph_build", n, [&] {
      const auto graph = sample_graph(n, kRadiusMultiplier, build_rng);
      g_sink = g_sink + static_cast<double>(graph.adjacency().edge_count());
      return std::uint64_t{1};
    });

    gg::Rng build_mt_rng(0x5eed1 + n);
    h.run("graph_build_mt", n, [&] {
      const auto graph =
          sample_graph(n, kRadiusMultiplier, build_mt_rng, &hw_pool);
      g_sink = g_sink + static_cast<double>(graph.adjacency().edge_count());
      return std::uint64_t{1};
    });

    gg::Rng build_rt_rng(0x5eed2 + n);
    h.run("graph_build_routing", n, [&] {
      const auto graph = sample_graph(n, kRadiusMultiplier, build_rt_rng,
                                      nullptr, /*eager_mirror=*/true);
      g_sink = g_sink + static_cast<double>(graph.adjacency().edge_count());
      return std::uint64_t{1};
    });

    // Kernels below share one sampled graph; skip its construction when
    // the filter selects none of them.  A kernel added to this block must
    // join this list — a stale list cannot hide a kernel silently, though:
    // a filter that matches nothing is diagnosed after the run.
    static constexpr const char* kSharedGraphKernels[] = {
        "nearest_query",         "route_to_node",
        "gossip_tick_pairwise",  "convergence_check",
        "deviation_norm_exact",  "acceptance_setup",
        "gossip_tick_geographic", "gossip_tick_async",
        "gossip_tick_decentralized"};
    if (!h.any(kSharedGraphKernels)) continue;
    gg::Rng graph_rng(0x96af + n);
    const auto graph = sample_graph(n, kRadiusMultiplier, graph_rng);

    gg::Rng query_rng(0x9ee1 + n);
    h.run("nearest_query", n, [&] {
      constexpr std::uint64_t kBatch = 1024;
      std::uint32_t acc = 0;
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        const gg::geometry::Vec2 q{query_rng.next_double(),
                                   query_rng.next_double()};
        acc += graph.nearest_node(q);
      }
      g_sink = g_sink + acc;
      return kBatch;
    });

    // Warm the lazy mirror whenever any kernel that routes is selected:
    // filtered runs must measure the same steady state as the unfiltered
    // baseline, where route_to_node has always built it by this point.
    static constexpr const char* kRoutingKernels[] = {
        "route_to_node", "gossip_tick_geographic", "gossip_tick_async",
        "gossip_tick_decentralized"};
    if (h.any(kRoutingKernels)) warm_routing_mirror(graph);

    gg::Rng route_rng(0x90f7 + n);
    h.run("route_to_node", n, [&] {
      constexpr std::uint64_t kBatch = 256;
      std::uint64_t hops = 0;
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        const auto src = static_cast<gg::graph::NodeId>(route_rng.below(n));
        const auto dst = static_cast<gg::graph::NodeId>(
            route_rng.below_excluding(n, src));
        hops += gg::routing::route_to_node(graph, src, dst).hops;
      }
      g_sink = g_sink + static_cast<double>(hops);
      return kBatch;
    });

    if (h.any({"gossip_tick_pairwise", "convergence_check",
               "deviation_norm_exact"})) {
      gg::Rng tick_rng(0x71c6 + n);
      gg::gossip::PairwiseGossip protocol(graph, make_field(n, tick_rng),
                                          tick_rng);
      gg::sim::AsyncClock clock(static_cast<std::uint32_t>(n), tick_rng);
      h.run("gossip_tick_pairwise", n, [&] {
        constexpr std::uint64_t kBatch = 4096;
        for (std::uint64_t i = 0; i < kBatch; ++i) {
          protocol.on_tick(clock.next());
        }
        g_sink = g_sink + protocol.values().back();
        return kBatch;
      });

      // convergence_check: the per-checkpoint test exactly as
      // run_to_epsilon executes it.
      h.run("convergence_check", n, [&] {
        constexpr std::uint64_t kBatch = 1024;
        double acc = 0.0;
        for (std::uint64_t i = 0; i < kBatch; ++i) {
          acc += engine_check(protocol, 1.0);
        }
        g_sink = g_sink + acc;
        return kBatch;
      });

      h.run("deviation_norm_exact", n, [&] {
        constexpr std::uint64_t kBatch = 256;
        double acc = 0.0;
        for (std::uint64_t i = 0; i < kBatch; ++i) {
          acc += gg::sim::deviation_norm(protocol.values());
        }
        g_sink = g_sink + acc;
        return kBatch;
      });
    }

    // acceptance_setup: one op = GeographicGossip construction, which
    // estimates the per-node Voronoi weights for rejection sampling.
    if (h.any({"acceptance_setup", "gossip_tick_geographic"})) {
      gg::Rng setup_rng(0xacce + n);
      auto x0 = make_field(n, setup_rng);
      h.run("acceptance_setup", n, [&] {
        gg::gossip::GeographicGossip protocol(graph, x0, setup_rng);
        g_sink = g_sink + protocol.acceptance().front();
        return std::uint64_t{1};
      });

      if (h.selected("gossip_tick_geographic")) {
        // Own seed stream: acceptance_setup's batch count is wall-clock
        // dependent, so continuing setup_rng here would make filtered and
        // unfiltered runs measure different protocol states.
        gg::Rng geo_tick_rng(0x6e07 + n);
        gg::gossip::GeographicGossip protocol(graph, x0, geo_tick_rng);
        gg::sim::AsyncClock clock(static_cast<std::uint32_t>(n),
                                  geo_tick_rng);
        h.run("gossip_tick_geographic", n, [&] {
          constexpr std::uint64_t kBatch = 512;
          for (std::uint64_t i = 0; i < kBatch; ++i) {
            protocol.on_tick(clock.next());
          }
          g_sink = g_sink + protocol.values().back();
          return kBatch;
        });
      }
    }

    // The paper's protocols: §4.2 async state machine and the §8
    // decentralized extension.  Both are Near-dominated.
    if (h.selected("gossip_tick_async")) {
      gg::Rng tick_rng(0xa51c + n);
      gg::core::HierarchyProtocolConfig config;
      config.eps = kEpsilon;
      gg::core::HierarchicalAffineProtocol protocol(
          graph, make_field(n, tick_rng), tick_rng, config);
      gg::sim::AsyncClock clock(static_cast<std::uint32_t>(n), tick_rng);
      h.run("gossip_tick_async", n, [&] {
        constexpr std::uint64_t kBatch = 2048;
        for (std::uint64_t i = 0; i < kBatch; ++i) {
          protocol.on_tick(clock.next());
        }
        g_sink = g_sink + protocol.values().back();
        return kBatch;
      });
    }
    if (h.selected("gossip_tick_decentralized")) {
      gg::Rng tick_rng(0xdece + n);
      gg::core::DecentralizedAffineGossip protocol(
          graph, make_field(n, tick_rng), tick_rng);
      gg::sim::AsyncClock clock(static_cast<std::uint32_t>(n), tick_rng);
      h.run("gossip_tick_decentralized", n, [&] {
        constexpr std::uint64_t kBatch = 2048;
        for (std::uint64_t i = 0; i < kBatch; ++i) {
          protocol.on_tick(clock.next());
        }
        g_sink = g_sink + protocol.values().back();
        return kBatch;
      });
    }
  }

  // End-to-end: fresh graph + protocol + run to the epsilon target, the
  // exact shape of one E5/E10/E11 replicate.
  for (const std::size_t n : e2e_ns) {
    if (h.selected("run_to_epsilon_pairwise")) {
      gg::Rng rng(0xe2e0 + n);
      const auto graph = sample_graph(n, kRadiusMultiplier, rng);
      h.run("run_to_epsilon_pairwise", n, [&] {
        gg::gossip::PairwiseGossip protocol(graph, make_field(n, rng), rng);
        gg::sim::RunConfig config;
        config.epsilon = kEpsilon;
        config.max_ticks = pairwise_tick_cap(n);
        const auto run = gg::sim::run_to_epsilon(protocol, rng, config);
        g_sink = g_sink + run.final_error;
        return std::uint64_t{1};
      });
    }
    if (h.selected("run_to_epsilon_geographic")) {
      gg::Rng rng(0xe2e1 + n);
      const auto graph = sample_graph(n, kRadiusMultiplier, rng);
      h.run("run_to_epsilon_geographic", n, [&] {
        gg::gossip::GeographicGossip protocol(graph, make_field(n, rng),
                                              rng);
        gg::sim::RunConfig config;
        config.epsilon = kEpsilon;
        config.max_ticks = geographic_tick_cap(n);
        const auto run = gg::sim::run_to_epsilon(protocol, rng, config);
        g_sink = g_sink + run.final_error;
        return std::uint64_t{1};
      });
    }
    // The §4.2 state machine's calibrated budgets make its honest
    // convergence time at n = 4096 tens of seconds even when the
    // simulator is fast; keep its end-to-end kernel at n = 1024 so the
    // harness stays runnable in CI (gossip_tick_async covers larger n).
    if (n <= 1024 && h.selected("run_to_epsilon_async")) {
      gg::Rng rng(0xe2e2 + n);
      const auto graph = sample_graph(n, kRadiusMultiplier, rng);
      h.run("run_to_epsilon_async", n, [&] {
        gg::core::HierarchyProtocolConfig protocol_config;
        protocol_config.eps = kEpsilon;
        gg::core::HierarchicalAffineProtocol protocol(
            graph, make_field(n, rng), rng, protocol_config);
        gg::sim::RunConfig config;
        config.epsilon = kEpsilon;
        config.max_ticks = state_machine_tick_cap(n);
        const auto run = gg::sim::run_to_epsilon(protocol, rng, config);
        g_sink = g_sink + run.final_error;
        return std::uint64_t{1};
      });
    }
    if (h.selected("run_to_epsilon_decentralized")) {
      gg::Rng rng(0xe2e3 + n);
      const auto graph = sample_graph(n, kRadiusMultiplier, rng);
      h.run("run_to_epsilon_decentralized", n, [&] {
        gg::core::DecentralizedAffineGossip protocol(
            graph, make_field(n, rng), rng);
        gg::sim::RunConfig config;
        config.epsilon = kEpsilon;
        config.max_ticks = state_machine_tick_cap(n);
        const auto run = gg::sim::run_to_epsilon(protocol, rng, config);
        g_sink = g_sink + run.final_error;
        return std::uint64_t{1};
      });
    }
  }

  // XL ladder (--xl): one build op per kernel, smallest n first so the
  // monotone max-RSS column attributes growth to the right kernel.  The
  // final point is the 2^20 proof replicate: build, eager mirror, then a
  // geographic-gossip run to kXlEpsilon — the whole pipeline at paper-
  // target scale inside one recorded footprint.
  if (xl) {
    const std::vector<std::size_t> xl_ns{std::size_t{1} << 17,
                                         std::size_t{1} << 18,
                                         std::size_t{1} << 20};
    for (const std::size_t n : xl_ns) {
      gg::Rng build_rng(0x5eed0 + n);
      h.run("graph_build", n, [&] {
        const auto graph = sample_graph(n, kRadiusMultiplier, build_rng);
        g_sink = g_sink + static_cast<double>(graph.adjacency().edge_count());
        return std::uint64_t{1};
      });
      gg::Rng build_mt_rng(0x5eed1 + n);
      h.run("graph_build_mt", n, [&] {
        const auto graph =
            sample_graph(n, kRadiusMultiplier, build_mt_rng, &hw_pool);
        g_sink = g_sink + static_cast<double>(graph.adjacency().edge_count());
        return std::uint64_t{1};
      });
      gg::Rng build_rt_rng(0x5eed2 + n);
      // Serial like the micro-ladder kernel of the same name — one
      // (name, n) point must keep one configuration across the whole
      // trajectory; graph_build_mt is the pooled point.
      h.run("graph_build_routing", n, [&] {
        const auto graph = sample_graph(n, kRadiusMultiplier, build_rt_rng,
                                        nullptr, /*eager_mirror=*/true);
        g_sink = g_sink + static_cast<double>(graph.adjacency().edge_count());
        return std::uint64_t{1};
      });
    }
    if (h.selected("run_to_epsilon_geographic_xl")) {
      const std::size_t n = std::size_t{1} << 20;
      gg::Rng rng(0xe2e1 + n);
      const auto graph =
          sample_graph(n, kRadiusMultiplier, rng, &hw_pool,
                       /*eager_mirror=*/true);
      h.run("run_to_epsilon_geographic_xl", n, [&] {
        gg::gossip::GeographicGossip protocol(graph, make_field(n, rng),
                                              rng);
        gg::sim::RunConfig config;
        config.epsilon = kXlEpsilon;
        config.max_ticks = geographic_tick_cap(n);
        const auto run = gg::sim::run_to_epsilon(protocol, rng, config);
        g_sink = g_sink + run.final_error;
        return std::uint64_t{1};
      });
    }
  }

  const auto& results = h.results;
  if (results.empty()) {
    std::cerr << "no kernel matched --filter='" << h.filter
              << "' (check the name, or a stale setup-guard list in this "
                 "harness)\n";
    return 1;
  }
  std::printf("%-28s %9s %14s %10s %12s %12s\n", "kernel", "n", "ns/op",
              "ops", "total_ms", "max_rss_kb");
  for (const auto& r : results) {
    std::printf("%-28s %9zu %14.1f %10llu %12.1f %12llu\n", r.name.c_str(),
                r.n, r.ns_per_op, static_cast<unsigned long long>(r.ops),
                r.total_ms, static_cast<unsigned long long>(r.max_rss_kb));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << " for writing\n";
      return 1;
    }
    append_json(out, results, quick);
    std::cout << "wrote " << json_path << "\n";
  }
  if (!trace_path.empty()) {
    gg::obs::write_chrome_trace_file(trace_path, gg::obs::snapshot(),
                                     "bench/kernels");
    std::cout << "wrote " << trace_path << "\n";
  }
  return 0;
}
