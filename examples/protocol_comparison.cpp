// Head-to-head of every implemented protocol on one deployment: the
// paper's comparison table, live, plus an error-vs-transmissions trace.
//
//   $ ./protocol_comparison --n 2048 --eps 1e-3
#include <iostream>

#include "core/convergence.hpp"
#include "sim/field.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace gg = geogossip;
using gg::core::ProtocolKind;

static int run(int argc, char** argv) {
  std::uint64_t n = 2048;
  double eps = 1e-3;
  std::uint64_t seed = 27;
  std::string field = "gaussian";

  gg::ArgParser parser("protocol_comparison",
                       "all protocols on one deployment");
  parser.add_flag("n", &n, "number of sensors");
  parser.add_flag("eps", &eps, "relative accuracy target");
  parser.add_flag("seed", &seed, "random seed");
  parser.add_flag("field", &field,
                  "initial field: spike|gradient|gaussian|checkerboard|"
                  "spiked-gaussian");
  const auto parsed = parser.parse(argc, argv);
  if (parsed != geogossip::ParseResult::kOk) {
    return geogossip::parse_exit_code(parsed);
  }

  gg::Rng rng(seed);
  const auto graph = gg::graph::GeometricGraph::sample(n, 1.2, rng);
  auto x0 = gg::sim::make_field(gg::sim::parse_field_kind(field),
                                graph.points(), rng);
  gg::sim::center_and_normalize(x0);

  std::cout << graph.summary() << "\nfield: " << field << ", eps=" << eps
            << "\n\n";

  gg::ConsoleTable table({"protocol", "converged", "total tx", "local",
                          "long-range", "control", "sum drift"});
  table.set_alignment(0, gg::Align::kLeft);

  gg::core::TrialOptions options;
  options.eps = eps;
  for (const auto kind :
       {ProtocolKind::kBoydPairwise, ProtocolKind::kDimakisGeographic,
        ProtocolKind::kPathAveraging, ProtocolKind::kAffineOneLevel,
        ProtocolKind::kAffineMultilevel, ProtocolKind::kAffineAsync,
        ProtocolKind::kAffineDecentralized}) {
    gg::Rng trial_rng(
        gg::derive_seed(seed, static_cast<std::uint64_t>(kind)));
    const auto outcome =
        gg::core::run_protocol_trial(kind, graph, x0, trial_rng, options);
    table.cell(std::string(gg::core::protocol_kind_name(kind)))
        .cell(outcome.converged ? "yes" : "no")
        .cell(gg::format_si(
            static_cast<double>(outcome.transmissions.total())))
        .cell(gg::format_si(static_cast<double>(
            outcome.transmissions[gg::sim::TxCategory::kLocal])))
        .cell(gg::format_si(static_cast<double>(
            outcome.transmissions[gg::sim::TxCategory::kLongRange])))
        .cell(gg::format_si(static_cast<double>(
            outcome.transmissions[gg::sim::TxCategory::kControl])))
        .cell(gg::format_sci(outcome.sum_drift, 1));
    table.end_row();
  }
  table.print(std::cout);

  // Error-vs-transmissions trace for the affine protocol.
  gg::core::MultilevelConfig config;
  config.eps = eps;
  config.trace_every = 4;
  gg::Rng trace_rng(gg::derive_seed(seed, 99));
  gg::core::MultilevelAffineGossip protocol(graph, x0, trace_rng, config);
  const auto result = protocol.run();
  if (result.trace.size() >= 3) {
    std::vector<double> txs;
    std::vector<double> errors;
    for (const auto& [tx, err] : result.trace) {
      txs.push_back(static_cast<double>(tx));
      errors.push_back(err);
    }
    gg::AsciiChart::Options chart_options;
    chart_options.log_y = true;
    gg::AsciiChart chart(chart_options);
    chart.add_series("affine gossip: relative error vs transmissions", '*',
                     txs, errors);
    std::cout << '\n';
    chart.print(std::cout);
  }

  std::cout << "\nNote on scale: at laptop-size n the absolute winners are\n"
               "the cheap-constant protocols; the affine protocols win on\n"
               "scaling exponent (bench/tab_e5_scaling; E5 in the README's\n"
               "\"Reproducing the paper's figures\").\n";
  return 0;
}

int main(int argc, char** argv) { return gg::run_main(argc, argv, run); }
