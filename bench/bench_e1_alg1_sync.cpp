// E1 — Theorem 1: Algorithm 1 (synchronous, identical starts, known Δ_est)
// completes with probability ≥ 1−ε within
// O((max(S,Δ)/ρ)·log Δ_est·log(N/ε)) slots.
//
// Reproduced series:
//   (a) discovery slots vs N        — must grow ~log N (clique, fixed S)
//   (b) discovery slots vs Δ_est    — must grow ~log Δ_est (stage length)
//   (c) measured slots vs theorem slot budget — measured ≤ bound, with the
//       ε-quantile of the empirical distribution well under the bound.
#include <cmath>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "core/transmit_probability.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr double kEpsilon = 0.1;
constexpr std::size_t kDeltaEst = 16;

[[nodiscard]] net::Network clique_network(net::NodeId n, std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kClique;
  config.n = n;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 12;
  config.set_size = 4;
  return runner::build_scenario(config, seed);
}

void reproduce_table() {
  runner::print_banner(
      "E1 / Theorem 1",
      "Alg 1 finishes w.p. >= 1-eps within "
      "O((max(S,D)/rho) log(D_est) log(N/eps)) slots",
      "clique, uniform-random channels |U|=12 |A|=4, eps=0.1");

  auto csv_file = runner::open_results_csv("e1_alg1_sync");
  util::CsvWriter csv(csv_file);
  csv.header({"series", "x", "trials", "success_rate", "mean_slots",
              "p90_slots", "theorem_slot_bound"});

  // (a) scaling in N at fixed Δ_est, on a ring with homogeneous channels:
  // S, Δ and ρ stay constant so only the log(N/ε) union bound grows.
  util::Table table_n({"N", "trials", "success", "mean slots", "p90 slots",
                       "thm1 bound", "measured/bound"});
  for (const net::NodeId n : {8u, 16u, 32u, 64u, 128u}) {
    runner::ScenarioConfig ring;
    ring.topology = runner::TopologyKind::kRing;
    ring.n = n;
    ring.channels = runner::ChannelKind::kHomogeneous;
    ring.universe = 12;
    ring.set_size = 4;
    const net::Network network = runner::build_scenario(ring, 2);
    runner::SyncTrialConfig trial;
    trial.trials = 30;
    trial.seed = 10 + n;
    trial.engine.max_slots = 10'000'000;
    const auto stats = runner::run_sync_trials(
        network, core::make_algorithm1(kDeltaEst), trial);
    const auto summary = stats.completion_slots.summarize();
    const double bound = core::theorem1_slot_bound(
        benchx::bound_params(network, kDeltaEst, kEpsilon));
    table_n.row()
        .cell(static_cast<std::size_t>(n))
        .cell(stats.trials)
        .cell(stats.success_rate(), 2)
        .cell(summary.mean, 1)
        .cell(summary.p90, 1)
        .cell(bound, 0)
        .cell(benchx::ratio(summary.p90, bound), 4);
    csv.field("vs_n").field(static_cast<std::size_t>(n)).field(stats.trials);
    csv.field(stats.success_rate()).field(summary.mean).field(summary.p90);
    csv.field(bound);
    csv.end_row();
  }
  std::printf("(a) scaling in N on a ring, S/Delta/rho fixed (expect ~log N "
              "growth, bound never violated):\n%s\n",
              table_n.render().c_str());

  // (a') same sweep on a clique, where Δ = N-1 grows with N: the bound's
  // max(S,Δ) factor takes over and growth is super-logarithmic — included
  // to show the bound tracks the right parameter.
  util::Table table_clique({"N", "Delta", "mean slots", "thm1 bound",
                            "measured/bound"});
  for (const net::NodeId n : {8u, 16u, 32u, 64u}) {
    const net::Network network = clique_network(n, 2);
    runner::SyncTrialConfig trial;
    trial.trials = 20;
    trial.seed = 50 + n;
    trial.engine.max_slots = 10'000'000;
    const auto stats = runner::run_sync_trials(
        network, core::make_algorithm1(kDeltaEst), trial);
    const auto summary = stats.completion_slots.summarize();
    const double bound = core::theorem1_slot_bound(
        benchx::bound_params(network, kDeltaEst, kEpsilon));
    table_clique.row()
        .cell(static_cast<std::size_t>(n))
        .cell(network.max_channel_degree())
        .cell(summary.mean, 1)
        .cell(bound, 0)
        .cell(benchx::ratio(summary.p90, bound), 4);
    csv.field("vs_n_clique").field(static_cast<std::size_t>(n));
    csv.field(stats.trials).field(stats.success_rate());
    csv.field(summary.mean).field(summary.p90).field(bound);
    csv.end_row();
  }
  std::printf("(a') scaling in N on a clique (Delta grows with N; bound "
              "tracks it):\n%s\n",
              table_clique.render().c_str());

  // (b) scaling in Δ_est at fixed N: the log(Δ_est) stage-length factor.
  util::Table table_d({"D_est", "stage slots", "mean slots", "p90 slots",
                       "thm1 bound"});
  const net::Network network = clique_network(16, 3);
  for (const std::size_t dest : {4ul, 16ul, 64ul, 256ul, 1024ul}) {
    runner::SyncTrialConfig trial;
    trial.trials = 30;
    trial.seed = 400 + dest;
    trial.engine.max_slots = 10'000'000;
    const auto stats = runner::run_sync_trials(
        network, core::make_algorithm1(dest), trial);
    const auto summary = stats.completion_slots.summarize();
    const double bound = core::theorem1_slot_bound(
        benchx::bound_params(network, dest, kEpsilon));
    table_d.row()
        .cell(dest)
        .cell(static_cast<std::size_t>(core::stage_length(dest)))
        .cell(summary.mean, 1)
        .cell(summary.p90, 1)
        .cell(bound, 0);
    csv.field("vs_dest").field(dest).field(stats.trials);
    csv.field(stats.success_rate()).field(summary.mean).field(summary.p90);
    csv.field(bound);
    csv.end_row();
  }
  std::printf("(b) scaling in D_est (expect ~log D_est growth via stage "
              "length):\n%s\n",
              table_d.render().c_str());

  // (c) verdicts.
  const net::Network verdict_net = clique_network(32, 4);
  runner::SyncTrialConfig trial;
  trial.trials = 50;
  trial.seed = 999;
  const double bound = core::theorem1_slot_bound(
      benchx::bound_params(verdict_net, kDeltaEst, kEpsilon));
  trial.engine.max_slots = static_cast<std::uint64_t>(std::ceil(bound));
  const auto stats = runner::run_sync_trials(
      verdict_net, core::make_algorithm1(kDeltaEst), trial);
  runner::print_verdict(stats.success_rate() >= 1.0 - kEpsilon,
                        "success rate at the theorem budget >= 1 - eps");

  // Distribution of completion slots across the verdict trials: the tail
  // (p99 vs median) is what the union bound over links pays for.
  const auto summary = stats.completion_slots.summarize();
  util::Histogram histogram(summary.min, summary.max + 1.0, 10);
  for (const double slots : stats.completion_slots.values()) {
    histogram.add(slots);
  }
  std::printf("\ncompletion-slot distribution (clique n=32, %zu trials):\n%s",
              stats.completed, histogram.render(40).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e1_alg1_sync", reproduce_table,
      {{"experiment", "E1"},
       {"topology", "clique+ring"},
       {"universe", "12"},
       {"set_size", "4"},
       {"delta_est", "16"},
       {"epsilon", "0.1"}});
}
