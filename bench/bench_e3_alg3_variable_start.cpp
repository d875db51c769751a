// E3 — Theorem 3: Algorithm 3 handles variable start times, completing
// within O((max(2S, Δ_est)/ρ)·log(N/ε)) slots after the last node starts —
// with NO log(Δ_est) factor (no stages), but a linear dependence on Δ_est.
//
// Reproduced series:
//   (a) robustness to start-time spread: slots-after-T_s stays flat as the
//       spread grows (Algorithm 1, which assumes identical starts, is run
//       alongside to show it degrades).
//   (b) dependence on Δ_est: Alg 3 grows ~linearly in Δ_est while Alg 1
//       grows ~log Δ_est — the trade the paper calls out ("the running
//       time... depends linearly on the value of the upper bound").
#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr double kEpsilon = 0.1;
constexpr std::size_t kDeltaEst = 16;

[[nodiscard]] net::Network workload(std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kUnitDisk;
  config.n = 24;
  config.ud_radius = 0.35;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 10;
  config.set_size = 4;
  return runner::build_scenario(config, seed);
}

// Random start slots in [0, spread], derived from the trial index.
void randomize_starts(const net::Network& network, std::uint64_t spread,
                      std::uint64_t trial, sim::SlotEngineConfig& engine) {
  util::Rng rng(util::SeedSequence(4711).derive(trial, spread));
  engine.starts.assign(network.node_count(), 0);
  std::uint64_t latest = 0;
  for (net::NodeId u = 0; u < network.node_count(); ++u) {
    engine.starts[u] = spread == 0 ? 0 : rng.uniform(spread + 1);
    latest = std::max(latest, engine.starts[u]);
  }
  // Ensure the spread is actually realized so "slots after T_s" compares
  // like with like.
  if (network.node_count() > 0) engine.starts[0] = spread;
}

// Mean slots from T_s (the last start) to completion.
[[nodiscard]] double mean_slots_after_ts(const net::Network& network,
                                         const sim::SyncPolicyFactory& factory,
                                         std::uint64_t spread,
                                         std::uint64_t seed_base) {
  util::RunningStats stats;
  for (std::uint64_t t = 0; t < 30; ++t) {
    sim::SlotEngineConfig engine;
    engine.max_slots = 20'000'000;
    engine.seed = seed_base + t;
    randomize_starts(network, spread, t, engine);
    const auto result = sim::run_slot_engine(network, factory, engine);
    if (result.complete) {
      stats.add(static_cast<double>(result.completion_slot) -
                static_cast<double>(spread));
    }
  }
  return stats.mean();
}

void reproduce_table() {
  runner::print_banner(
      "E3 / Theorem 3",
      "Alg 3 completes within O((max(2S,D_est)/rho) log(N/eps)) slots after "
      "T_s, for any start-time spread",
      "unit disk n=24, uniform-random channels |U|=10 |A|=4, eps=0.1");

  auto csv_file = runner::open_results_csv("e3_alg3_variable_start");
  util::CsvWriter csv(csv_file);
  csv.header({"series", "x", "alg3_slots_after_ts", "alg1_slots_after_ts",
              "thm3_bound"});

  const net::Network network = workload(2);
  const double bound = core::theorem3_slot_bound(
      benchx::bound_params(network, kDeltaEst, kEpsilon));

  // (a) start-time spread sweep.
  util::Table table_spread({"spread (slots)", "alg3 after T_s",
                            "alg1 after T_s", "thm3 bound"});
  double alg3_flatness_min = 1e300;
  double alg3_flatness_max = 0.0;
  for (const std::uint64_t spread : {0ull, 16ull, 64ull, 256ull, 1024ull}) {
    const double alg3 = mean_slots_after_ts(
        network, core::make_algorithm3(kDeltaEst), spread, 100);
    const double alg1 = mean_slots_after_ts(
        network, core::make_algorithm1(kDeltaEst), spread, 200);
    alg3_flatness_min = std::min(alg3_flatness_min, alg3);
    alg3_flatness_max = std::max(alg3_flatness_max, alg3);
    table_spread.row()
        .cell(spread)
        .cell(alg3, 1)
        .cell(alg1, 1)
        .cell(bound, 0);
    csv.field("vs_spread").field(spread).field(alg3).field(alg1).field(bound);
    csv.end_row();
  }
  std::printf("(a) start-time spread (alg3 must stay flat):\n%s\n",
              table_spread.render().c_str());
  runner::print_verdict(
      alg3_flatness_max <= 3.0 * alg3_flatness_min,
      "alg3 slots-after-T_s roughly flat across spreads (within 3x)");

  // (b) Δ_est sweep with identical starts: linear (alg3) vs log (alg1).
  util::Table table_dest({"D_est", "alg3 mean slots", "alg1 mean slots"});
  std::vector<double> dests;
  std::vector<double> alg3_means;
  for (const std::size_t dest : {8ul, 16ul, 32ul, 64ul, 128ul}) {
    runner::SyncTrialConfig trial;
    trial.trials = 30;
    trial.seed = 300 + dest;
    trial.engine.max_slots = 20'000'000;
    const auto alg3 = runner::run_sync_trials(
        network, core::make_algorithm3(dest), trial);
    const auto alg1 = runner::run_sync_trials(
        network, core::make_algorithm1(dest), trial);
    const double m3 = alg3.completion_slots.summarize().mean;
    const double m1 = alg1.completion_slots.summarize().mean;
    dests.push_back(static_cast<double>(dest));
    alg3_means.push_back(m3);
    table_dest.row().cell(dest).cell(m3, 1).cell(m1, 1);
    csv.field("vs_dest").field(dest).field(m3).field(m1).field(bound);
    csv.end_row();
  }
  std::printf("(b) D_est dependence (alg3 linear, alg1 logarithmic):\n%s\n",
              table_dest.render().c_str());
  const auto fit = util::linear_fit(dests, alg3_means);
  runner::print_verdict(fit.r2 > 0.95 && fit.slope > 0.0,
                        "alg3 mean slots fit a linear trend in D_est "
                        "(r2 > 0.95)");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e3_alg3_variable_start", reproduce_table,
      {{"experiment", "E3"},
       {"topology", "unit_disk n=24"},
       {"universe", "10"},
       {"set_size", "4"},
       {"epsilon", "0.1"}});
}
