// E6 — §I claim: the universal-channel-set extension of a single-channel
// protocol is linear in |U| no matter how small the nodes' available sets
// are; the paper's algorithms depend on S = max|A(u)|, not |U|.
//
// Reproduced series: fix |A(u)| = 4 and sweep the universe size |U| from 4
// to 256. The baseline's discovery time must grow ~linearly with |U| while
// Algorithm 3's stays flat.
#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 8;

// The available channel sets live in a fixed 8-channel sub-pool regardless
// of |U| (spectrum is congested: most of the universal set is busy, exactly
// the situation §I argues makes the baseline wasteful). The sub-pool keeps
// S, spans and ρ identical across the sweep; only the universe the baseline
// must round-robin over grows.
[[nodiscard]] net::Network workload(net::ChannelId universe,
                                    std::uint64_t seed) {
  constexpr net::ChannelId kPool = 8;
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kClique;
  config.n = 8;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = kPool;
  config.set_size = 4;
  const net::Network pool_net = runner::build_scenario(config, seed);
  // Re-embed every channel set into the larger universe unchanged.
  std::vector<net::ChannelSet> embedded;
  embedded.reserve(pool_net.node_count());
  for (net::NodeId u = 0; u < pool_net.node_count(); ++u) {
    net::ChannelSet s(universe);
    for (const net::ChannelId c : pool_net.available(u).to_vector()) {
      s.insert(c);
    }
    embedded.push_back(std::move(s));
  }
  return net::Network(pool_net.topology(), std::move(embedded));
}

void reproduce_table() {
  runner::print_banner(
      "E6 / universal-channel-set baseline",
      "baseline time grows linearly in |U| even with |A(u)| fixed at 4; "
      "Alg 3 is independent of |U|",
      "clique n=8, uniform-random channels |A|=4, |U| swept");

  auto csv_file = runner::open_results_csv("e6_baseline_universal");
  util::CsvWriter csv(csv_file);
  csv.header({"universe", "baseline_mean_slots", "alg3_mean_slots",
              "speedup"});

  util::Table table({"|U|", "baseline mean slots", "alg3 mean slots",
                     "alg3 speedup"});
  std::vector<double> universes;
  std::vector<double> baseline_means;
  std::vector<double> alg3_means;
  for (const net::ChannelId universe : {8u, 16u, 32u, 64u, 128u, 256u}) {
    const net::Network network = workload(universe, 2);

    runner::SyncTrialConfig trial;
    trial.trials = 25;
    trial.seed = 60 + universe;
    trial.engine.max_slots = 50'000'000;

    const auto baseline = runner::run_sync_trials(
        network, core::make_universal_baseline(universe, 0.5), trial);
    const auto alg3 = runner::run_sync_trials(
        network, core::make_algorithm3(kDeltaEst), trial);

    const double mb = baseline.completion_slots.summarize().mean;
    const double m3 = alg3.completion_slots.summarize().mean;
    universes.push_back(static_cast<double>(universe));
    baseline_means.push_back(mb);
    alg3_means.push_back(m3);
    table.row()
        .cell(static_cast<std::size_t>(universe))
        .cell(mb, 1)
        .cell(m3, 1)
        .cell(benchx::ratio(mb, m3), 2);
    csv.field(static_cast<std::size_t>(universe)).field(mb).field(m3);
    csv.field(benchx::ratio(mb, m3));
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());

  util::PlotOptions plot;
  plot.x_label = "|U| (universal channel set size)";
  plot.y_label = "baseline mean slots";
  std::printf("%s\n", util::ascii_plot(universes, baseline_means,
                                       plot).c_str());

  const auto baseline_fit = util::linear_fit(universes, baseline_means);
  const double alg3_spread =
      *std::max_element(alg3_means.begin(), alg3_means.end()) /
      *std::min_element(alg3_means.begin(), alg3_means.end());
  runner::print_verdict(baseline_fit.slope > 0.0 && baseline_fit.r2 > 0.9,
                        "baseline mean slots grow linearly in |U| "
                        "(r2 > 0.9)");
  runner::print_verdict(alg3_spread < 2.0,
                        "alg3 mean slots flat in |U| (max/min < 2)");
  runner::print_verdict(baseline_means.back() > 5.0 * alg3_means.back(),
                        "at |U|=256 the paper's algorithm wins by > 5x");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e6_baseline_universal", reproduce_table,
      {{"experiment", "E6"},
       {"topology", "clique n=8"},
       {"set_size", "4"},
       {"universe", "swept"}});
}
