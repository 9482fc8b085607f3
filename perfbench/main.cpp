// Repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics with telemetry off: set-up is
// timed setup_reps times, the workload's warm-up passes run, then the
// whole workload runs through exp::Runner::run again and again until S
// seconds have passed, and each time metric is the median over those runs.  --trace 1 runs the workload
// once untraced and once traced, replays it through the public protocol
// API for tick and round counts, times every layer with fixed op counts,
// and prints the reconcile report.  Either way the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/memory.hpp"
#include "perfbench.hpp"
#include "support/check.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n  workloads: all";
  for (const auto& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--out") {
        args.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (args.out_dir.empty()) args.out_dir = "perfbench-out";
  return args;
}

double median(std::vector<double> values) {
  GG_CHECK(!values.empty(), "median of nothing");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// This process's RSS high-water in MB.  VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the peak of the process image before
/// exec, so under a Python launcher it reports the launcher's size
/// whenever the benchmark itself stays smaller.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return static_cast<double>(gg::obs::max_rss_kb()) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Set-up cost of the workload: the public calls each cell's replicate 0
/// makes before its first tick, summed over cells.
double time_setup(const Workload& workload) {
  double total = 0.0;
  for (std::size_t c = 0; c < workload.scenario.cells.size(); ++c) {
    const auto& cell = workload.scenario.cells[c];
    total += prepare(cell, gg::exp::replicate_seed(
                               workload.scenario.master_seed, c, 0))
                 ->total_s();
  }
  return total;
}

void report_failures(const RunOutcome& run) {
  for (const auto& failure : run.failures) {
    std::cout << "  FAILED " << failure << "\n";
  }
}

void run_untraced(const Args& args, const Workload& workload) {
  std::vector<double> setups;
  for (int rep = 0; rep < workload.setup_reps; ++rep) {
    setups.push_back(time_setup(workload));
  }

  std::vector<double> walls;
  int runs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  bool identical = true;
  std::uint64_t tx_total = 0;
  std::uint64_t digest = 0;
  // Every pass, warm-up or timed, is checked and must repeat pass 0 bit
  // for bit.
  const auto run_checked = [&] {
    const RunOutcome run = run_workload(workload, args.out_dir);
    report_failures(run);
    if (runs == 0) {
      tx_total = run.tx_total;
      digest = run.digest;
    } else if (run.tx_total != tx_total || run.digest != digest) {
      std::cout << "  FAILED run " << runs
                << " is not a bit-identical repeat of run 0\n";
      identical = false;
    }
    ++runs;
    attempted += run.replicates;
    failed += run.failed;
    correct = correct && run.failures.empty();
    return run.wall_s;
  };
  for (int warmup = 0; warmup < workload.warmup_runs; ++warmup) {
    run_checked();
  }
  const auto start = std::chrono::steady_clock::now();
  do {
    walls.push_back(run_checked());
  } while (seconds_since(start) < args.seconds);
  const double peak_mb = peak_rss_mb();

  std::cout << "perfbench " << workload.name << " seed=" << args.seed
            << " threads=" << workload.threads << " runs=" << walls.size()
            << " (+" << workload.warmup_runs << " warm-up)\n"
            << "  wall_s        " << number(median(walls)) << " s  (median of";
  for (const double wall : walls) std::cout << " " << wall;
  std::cout << ")\n"
            << "  setup_s       " << number(median(setups))
            << " s  (median of " << setups.size() << " set-ups)\n"
            << "  peak_rss_mb   " << peak_mb << " MB\n"
            << "  tx_total      " << tx_total << " count\n"
            << "  failed_share  "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << " share  (" << failed << " of " << attempted
            << " replicates)\n"
            << "  digest        " << hex(digest) << "  (identical in "
            << (identical ? "every run" : "NOT every run") << ")\n";
  print_result(correct && identical && failed == 0, attempted, failed,
               {{"wall_s", median(walls), "s"},
                {"setup_s", median(setups), "s"},
                {"peak_rss_mb", peak_mb, "MB"},
                {"tx_total", static_cast<double>(tx_total), "count"}});
}

void run_traced(const Args& args, const Workload& workload) {
  const RunOutcome untraced = run_workload(workload, args.out_dir);
  report_failures(untraced);
  bool correct = untraced.failures.empty();
  std::uint64_t attempted = untraced.replicates;
  std::uint64_t failed = untraced.failed;
  std::cout << "perfbench " << workload.name << " seed=" << args.seed
            << " threads=" << workload.threads << " (traced mode)\n"
            << "  untraced wall_s " << untraced.wall_s << " s, tx_total "
            << untraced.tx_total << ", digest " << hex(untraced.digest)
            << "\n";
  if (workload.check_single_thread) {
    const RunOutcome serial = run_workload(workload, args.out_dir, 1);
    const bool same = serial.digest == untraced.digest &&
                      serial.tx_total == untraced.tx_total;
    std::cout << "  1-thread digest " << hex(serial.digest) << " ("
              << (same ? "identical" : "DIFFERENT") << " at "
              << workload.threads << " threads)\n";
    correct = correct && same && serial.failures.empty();
    attempted += serial.replicates;
    failed += serial.failed;
  }

  LayerInputs inputs;
  inputs.workload = &workload;
  inputs.seed = args.seed;
  inputs.out_dir = args.out_dir;
  inputs.untraced = &untraced;
  const LayerResult layers = measure_layers(inputs, std::cout);
  for (const auto& problem : layers.problems) {
    std::cout << "  FAILED " << problem << "\n";
  }
  correct = correct && layers.correct;

  std::vector<Metric> metrics;
  for (const auto& m : layer_metrics()) {
    const auto it = layers.metrics.find(m.name);
    metrics.push_back({m.name, it == layers.metrics.end() ? 0.0 : it->second,
                       m.unit});
  }
  print_result(correct && failed == 0, attempted, failed, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // "all" runs every workload in turn, one result line each.
  const std::vector<std::string> names =
      args.workload == "all" ? workload_names()
                             : std::vector<std::string>{args.workload};
  try {
    for (const auto& name : names) {
      const Workload workload = make_workload(name, args.seed);
      fs::remove_all(args.out_dir);
      fs::create_directories(args.out_dir);
      if (args.trace == 0) {
        run_untraced(args, workload);
      } else {
        run_traced(args, workload);
      }
      fs::remove_all(args.out_dir);
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
