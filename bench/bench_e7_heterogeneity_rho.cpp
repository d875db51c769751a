// E7 — §II claim: "The running time of our algorithms is inversely
// proportional to ρ" — the minimum span-ratio, the paper's measure of
// heterogeneity.
//
// Reproduced series: the chain-overlap construction gives exact
// ρ = k/S on a line; sweep k and verify mean discovery slots scale like
// 1/ρ for Algorithms 1 and 3 (fit slots·ρ ≈ const).
#include <algorithm>
#include <vector>

#include <cstdio>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "runner/link_stats.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr net::ChannelId kSetSize = 8;
constexpr std::size_t kDeltaEst = 32;

[[nodiscard]] net::Network workload(net::ChannelId overlap) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kLine;
  config.n = 12;
  config.channels = runner::ChannelKind::kChainOverlap;
  config.set_size = kSetSize;
  config.chain_overlap = overlap;
  return runner::build_scenario(config, 7);
}

void reproduce_table() {
  runner::print_banner(
      "E7 / heterogeneity cost",
      "running time is inversely proportional to rho (the min span-ratio)",
      "line n=12, chain-overlap channels S=8, span k swept (rho = k/S)");

  auto csv_file = runner::open_results_csv("e7_heterogeneity_rho");
  util::CsvWriter csv(csv_file);
  csv.header({"overlap_k", "rho", "alg1_mean_slots", "alg3_mean_slots",
              "alg3_slots_times_rho"});

  util::Table table({"k", "rho", "alg1 mean", "alg3 mean",
                     "alg3 mean x rho"});
  std::vector<double> normalized;  // alg3 slots × ρ — should be ~constant
  std::vector<double> inverse_rho;
  std::vector<double> alg3_means;
  for (const net::ChannelId overlap : {8u, 6u, 4u, 2u, 1u}) {
    const net::Network network = workload(overlap);
    runner::SyncTrialConfig trial;
    trial.trials = 40;
    trial.seed = 20 + overlap;
    trial.engine.max_slots = 50'000'000;
    const auto alg1 = runner::run_sync_trials(
        network, core::make_algorithm1(kDeltaEst), trial);
    const auto alg3 = runner::run_sync_trials(
        network, core::make_algorithm3(kDeltaEst), trial);
    const double rho = network.min_span_ratio();
    const double m1 = alg1.completion_slots.summarize().mean;
    const double m3 = alg3.completion_slots.summarize().mean;
    normalized.push_back(m3 * rho);
    inverse_rho.push_back(1.0 / rho);
    alg3_means.push_back(m3);
    table.row()
        .cell(static_cast<std::size_t>(overlap))
        .cell(rho, 3)
        .cell(m1, 1)
        .cell(m3, 1)
        .cell(m3 * rho, 1);
    csv.field(static_cast<std::size_t>(overlap)).field(rho);
    csv.field(m1).field(m3).field(m3 * rho);
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());

  util::PlotOptions plot;
  plot.x_label = "1/rho";
  plot.y_label = "alg3 mean slots (expect a straight line)";
  std::printf("%s\n",
              util::ascii_plot(inverse_rho, alg3_means, plot).c_str());

  const double norm_max =
      *std::max_element(normalized.begin(), normalized.end());
  const double norm_min =
      *std::min_element(normalized.begin(), normalized.end());
  runner::print_verdict(
      norm_max <= 3.0 * norm_min,
      "alg3 slots x rho stays within 3x across an 8x rho range (the "
      "1/rho law)");
  runner::print_verdict(normalized.size() >= 2 &&
                            normalized.front() < normalized.back() * 3.0,
                        "no super-1/rho blowup at the heterogeneous end");

  // Mechanism check: on a network with one deliberately narrow link, the
  // per-link latency must concentrate on the low-span-ratio links (that is
  // *why* the bounds carry a 1/rho factor).
  net::Topology star(4);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  const net::Network mechanism_net(
      std::move(star), {net::ChannelSet(5, {0, 1, 2, 3}),
                        net::ChannelSet(5, {0, 1, 2, 3}),
                        net::ChannelSet(5, {0, 1, 2, 3}),
                        net::ChannelSet(5, {3, 4})});
  sim::SlotEngineConfig engine;
  engine.max_slots = 1'000'000;
  const auto link_report = runner::measure_link_latencies(
      mechanism_net, core::make_algorithm3(4), engine, 60, 4242);
  util::Table mech({"link", "span ratio", "mean 1st coverage"});
  for (const auto& entry : link_report.links) {
    char name[16];
    std::snprintf(name, sizeof(name), "%u->%u", entry.link.from,
                  entry.link.to);
    mech.row()
        .cell(name)
        .cell(entry.span_ratio, 3)
        .cell(entry.mean_first_coverage, 1);
  }
  std::printf(
      "\nmechanism (star with one narrow link; corr(1/ratio, latency) = "
      "%.2f):\n%s\n",
      link_report.inverse_ratio_correlation, mech.render().c_str());
  runner::print_verdict(link_report.inverse_ratio_correlation > 0.5,
                        "per-link latency correlates with 1/span-ratio "
                        "(the links that set rho are the slow ones)");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e7_heterogeneity_rho", reproduce_table,
      {{"experiment", "E7"},
       {"topology", "line n=12"},
       {"channels", "chain_overlap S=8"},
       {"rho", "k/S swept"}});
}
