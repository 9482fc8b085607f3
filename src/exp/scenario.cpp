#include "exp/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "exp/probes.hpp"
#include "graph/radius.hpp"
#include "support/check.hpp"

namespace geogossip::exp {

double Cell::param(const std::string& key, double fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

Cell& Scenario::add(core::ProtocolKind kind, std::size_t n) {
  return add(std::string(core::protocol_kind_name(kind)), kind, n);
}

Cell& Scenario::add(std::string label, core::ProtocolKind kind,
                    std::size_t n) {
  GG_CHECK_ARG(n >= 2, "cell '" + label + "' has n = " + std::to_string(n) +
                           "; a deployment needs n >= 2");
  Cell cell;
  cell.label = std::move(label);
  cell.kind = kind;
  cell.n = n;
  cells.push_back(std::move(cell));
  return cells.back();
}

std::uint64_t replicate_seed(std::uint64_t master_seed,
                             std::size_t cell_index,
                             std::uint32_t replicate) noexcept {
  // Two SplitMix64 derivations chain (master -> cell stream -> replicate
  // stream); each hop decorrelates nearby indices.
  return derive_seed(derive_seed(master_seed, cell_index), replicate);
}

namespace {

Scenario e5_quick() {
  Scenario scenario;
  scenario.name = "e5-quick";
  scenario.description =
      "Small E5 scaling sweep: every protocol over a shrunken n range";
  scenario.replicates = 4;
  scenario.master_seed = 1;
  const std::vector<std::size_t> small{256, 512, 1024};
  for (const auto kind :
       {core::ProtocolKind::kBoydPairwise,
        core::ProtocolKind::kDimakisGeographic,
        core::ProtocolKind::kPathAveraging,
        core::ProtocolKind::kAffineOneLevel,
        core::ProtocolKind::kAffineMultilevel}) {
    for (const std::size_t n : small) scenario.add(kind, n);
  }
  return scenario;
}

Scenario e10_quick() {
  Scenario scenario;
  scenario.name = "e10-ablation-quick";
  scenario.description =
      "Small E10 ablation: affine gain and depth variants at one size";
  scenario.replicates = 3;
  scenario.master_seed = 5;
  const std::size_t n = 2048;

  const auto add_row = [&](const std::string& label,
                           core::ProtocolKind kind,
                           const core::MultilevelConfig& config) {
    Cell& cell = scenario.add(label, kind, n);
    cell.field = CellField::kGaussian;
    cell.options.multilevel = config;
    cell.seed_stream = 0;  // paired draws across the ablation rows
  };

  core::MultilevelConfig base;
  add_row("multi | harmonic beta", core::ProtocolKind::kAffineMultilevel,
          base);
  core::MultilevelConfig expected = base;
  expected.beta_mode = core::BetaMode::kExpected;
  expected.max_top_rounds = 60000;
  add_row("multi | paper-literal beta",
          core::ProtocolKind::kAffineMultilevel, expected);
  add_row("one-level", core::ProtocolKind::kAffineOneLevel, base);
  return scenario;
}

Scenario e5_scaling_xl() {
  Scenario scenario;
  scenario.name = "e5-scaling-xl";
  scenario.description =
      "XL E5 scaling: routed protocols at n = 2^17..2^20 with per-replicate "
      "memory hints (pair with --mem-budget to bound concurrent builds)";
  scenario.replicates = 2;
  scenario.master_seed = 1;
  // The two routed baselines the paper's headline claim is measured
  // against: Dimakis geographic gossip, whose cost is O~(n^1.5), and path
  // averaging, which its paper calls order-optimal.  Both exercise the
  // lazy routing mirror at scale.  Expect minutes per replicate at 2^17
  // and hours at 2^20; this preset is nightly/real-hardware scale, not CI
  // scale.
  for (const auto kind : {core::ProtocolKind::kDimakisGeographic,
                          core::ProtocolKind::kPathAveraging}) {
    for (const std::size_t n :
         {std::size_t{1} << 17, std::size_t{1} << 18, std::size_t{1} << 19,
          std::size_t{1} << 20}) {
      Cell& cell = scenario.add(kind, n);
      cell.mem_hint_bytes = graph::estimate_build_memory_bytes(
          n, cell.radius_multiplier, /*with_routing_mirror=*/true);
    }
  }
  return scenario;
}

Scenario e11_quick() {
  Scenario scenario;
  scenario.name = "e11-decentralized-quick";
  scenario.description =
      "Small E11: decentralized affine gossip across separation factors";
  scenario.replicates = 3;
  scenario.master_seed = 9;
  const std::size_t n = 1024;
  const double eps = 1e-3;
  for (const double separation : {0.25, 1.0, 4.0}) {
    Cell& cell = scenario.add(
        "decentralized | separation " + std::to_string(separation),
        core::ProtocolKind::kAffineDecentralized, n);
    cell.field = CellField::kGaussian;
    cell.options.eps = eps;
    cell.options.decentralized.separation = separation;
    cell.options.max_ticks = static_cast<std::uint64_t>(
        2048.0 * static_cast<double>(n) * std::log(1.0 / eps));
  }
  Cell& controlled = scenario.add("controlled Sec4.2",
                                  core::ProtocolKind::kAffineAsync, n);
  controlled.field = CellField::kGaussian;
  return scenario;
}

Scenario e6_hops_xl() {
  auto scenario = make_e6_routing(
      {std::size_t{1} << 17, std::size_t{1} << 18, std::size_t{1} << 19,
       std::size_t{1} << 20},
      1000, 1.2, 2, 51);
  scenario.description =
      "XL E6 hop scaling at n = 2^17..2^20 with per-replicate memory "
      "hints (pair with --mem-budget to bound concurrent graph builds)";
  for (auto& cell : scenario.cells) {
    cell.mem_hint_bytes = graph::estimate_build_memory_bytes(
        cell.n, cell.radius_multiplier, /*with_routing_mirror=*/true);
  }
  return scenario;
}

/// A built-in preset.  find_preset() names the built scenario after the
/// entry (the probe builders name theirs after the figure, "e1-contraction"),
/// except for an alias, which keeps the name its builder gives.
struct Preset {
  std::string_view name;
  Scenario (*build)();
  bool alias = false;
};

// clang-format off
constexpr Preset kPresets[] = {
    {"e1-contraction-quick",    [] { return make_e1_contraction({32, 128}, 24, 11); }},
    {"e1-contraction-paper",    [] { return make_e1_contraction({32, 128, 512}, 96, 11); }},
    {"e2-tail-quick",           [] { return make_e2_tail(64, {0.5, 0.3, 0.1}, 60, 21); }},
    {"e2-tail-paper",           [] { return make_e2_tail(256, {0.5, 0.3, 0.1}, 600, 21); }},
    {"e3-perturbed-quick",      [] { return make_e3_perturbed(32, 1.0, {1e-5, 1e-4}, 40, 31); }},
    {"e3-perturbed-paper",      [] { return make_e3_perturbed(64, 1.0, {1e-6, 1e-5, 1e-4}, 300, 31); }},
    {"e4-spectral-quick",       [] { return make_e4_spectral({8, 16, 32}, 200, 2, 41); }},
    {"e4-spectral-paper",       [] { return make_e4_spectral({8, 16, 32, 64, 128, 256, 512}, 800, 3, 41); }},
    {"e5-quick",                e5_quick},
    // Long-form alias: parallel_sweep users and CI jobs name this preset
    // both ways.  The built Scenario keeps the name "e5-quick", so
    // checkpoints written under either spelling resume interchangeably.
    // `tab_e5_scaling --quick` is not this preset: it builds its own
    // scenario "e5-scaling" (six protocols at per-protocol sizes, 3
    // replicates), so its records do not resume e5-quick's or the reverse.
    {"e5-scaling-quick",        e5_quick, /*alias=*/true},
    {"e5-scaling-xl",           e5_scaling_xl},
    {"e6-routing-quick",        [] { return make_e6_routing({512, 1024, 2048}, 200, 1.2, 3, 51); }},
    {"e6-routing-paper",        [] { return make_e6_routing({1024, 2048, 4096, 8192, 16384, 32768, 65536}, 2000, 1.2, 3, 51); }},
    {"e6-hops-xl",              e6_hops_xl},
    {"e7-connectivity-quick",   [] { return make_e7_connectivity({256, 512}, {0.6, 1.0, 1.5}, 12, 61); }},
    {"e7-connectivity-paper",   [] { return make_e7_connectivity({500, 2000, 8000}, {0.6, 0.8, 1.0, 1.2, 1.5, 2.0}, 60, 61); }},
    {"e8-occupancy-quick",      [] { return make_e8_occupancy({1024, 4096}, 20, 71); }},
    {"e8-occupancy-paper",      [] { return make_e8_occupancy({1024, 4096, 16384, 65536, 262144, 1048576}, 200, 71); }},
    {"e9-rejection-quick",      [] { return make_e9_rejection({512}, 20000, 1.2, 2, 81); }},
    {"e9-rejection-paper",      [] { return make_e9_rejection({1024, 4096}, 200000, 1.2, 3, 81); }},
    {"e10-ablation-quick",      e10_quick},
    {"e11-decentralized-quick", e11_quick},
};
// clang-format on

}  // namespace

std::optional<Scenario> find_preset(std::string_view name) {
  for (const Preset& preset : kPresets) {
    if (preset.name != name) continue;
    Scenario scenario = preset.build();
    if (!preset.alias) scenario.name = preset.name;
    return scenario;
  }
  return std::nullopt;
}

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const Preset& preset : kPresets) names.emplace_back(preset.name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace geogossip::exp
