#include "exp/scenario.hpp"

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

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(const std::string& name, Factory factory) {
  GG_CHECK_ARG(!name.empty(), "ScenarioRegistry: name required");
  GG_CHECK_ARG(static_cast<bool>(factory), "ScenarioRegistry: factory");
  std::lock_guard<std::mutex> lock(mu_);
  factories_[name] = std::move(factory);
}

bool ScenarioRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(name) != 0;
}

Scenario ScenarioRegistry::make(const std::string& name) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = factories_.find(name);
    GG_CHECK_ARG(it != factories_.end(),
                 "unknown scenario '" + name + "'");
    factory = it->second;
  }
  Scenario scenario = factory();
  if (scenario.name.empty()) scenario.name = name;
  return scenario;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
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

}  // namespace

void register_builtin_scenarios() {
  auto& registry = ScenarioRegistry::instance();
  registry.add("e5-quick", e5_quick);
  // Long-form alias: parallel_sweep users and CI jobs name this preset
  // both ways.  The built Scenario keeps the name "e5-quick", so
  // checkpoints written under either spelling resume interchangeably.
  // `tab_e5_scaling --quick` is not this preset: it builds its own
  // scenario "e5-scaling" (six protocols at per-protocol sizes, 3
  // replicates), so its records do not resume e5-quick's or the reverse.
  registry.add("e5-scaling-quick", e5_quick);
  registry.add("e5-scaling-xl", e5_scaling_xl);
  registry.add("e10-ablation-quick", e10_quick);
  registry.add("e11-decentralized-quick", e11_quick);
  register_probe_scenarios();
}

}  // namespace geogossip::exp
