// E20 — the deterministic comparison of §I: related work [20]–[22] gives
// deterministic algorithms whose time depends on the *product* of network
// size and universal-channel-set size (and needs ids, a known universe and
// synchronized starts). The randomized Algorithm 3 needs none of that and
// its time depends on S = max|A(u)|, not |U| or N·|U|.
//
// Reproduced series:
//   (a) sweep N at fixed |U|: deterministic time ∝ N, alg3 ~flat-ish;
//   (b) sweep |U| at fixed N (available sets in a fixed pool):
//       deterministic time ∝ |U|, alg3 flat. The product law in full.
#include <vector>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "core/baseline_deterministic.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 16;

[[nodiscard]] net::Network pooled_workload(net::NodeId n,
                                           net::ChannelId universe,
                                           std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kClique;
  config.n = n;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 8;  // fixed pool; embedded into the agreed universe
  config.set_size = 4;
  const net::Network pool_net = runner::build_scenario(config, seed);
  std::vector<net::ChannelSet> embedded;
  embedded.reserve(pool_net.node_count());
  // Spread the pool across the universe (channel c -> c·|U|/8): available
  // channels are arbitrary ids, not the lowest ones, so the deterministic
  // round-robin really has to sweep the whole universal set.
  const net::ChannelId stride = universe / 8;
  for (net::NodeId u = 0; u < pool_net.node_count(); ++u) {
    net::ChannelSet s(universe);
    for (const net::ChannelId c : pool_net.available(u).to_vector()) {
      s.insert(c * stride);
    }
    embedded.push_back(std::move(s));
  }
  return net::Network(pool_net.topology(), std::move(embedded));
}

void reproduce_table() {
  runner::print_banner(
      "E20 / deterministic baseline (cf. [20], [21], [22])",
      "deterministic discovery time follows the N x |U| product law; the "
      "randomized Alg 3 depends on S only",
      "clique, channel pool of 8 with |A|=4, 20 trials/row (deterministic "
      "rows have zero variance)");

  auto csv_file = runner::open_results_csv("e20_deterministic_baseline");
  util::CsvWriter csv(csv_file);
  csv.header({"series", "x", "det_mean_slots", "alg3_mean_slots",
              "product_nu"});

  auto run_pair = [&](const net::Network& network, net::ChannelId universe) {
    runner::SyncTrialConfig trial;
    trial.trials = 20;
    trial.seed = 5;
    trial.engine.max_slots = 10'000'000;
    const auto det = runner::run_sync_trials(
        network, core::make_deterministic_baseline(universe), trial);
    const auto alg3 = runner::run_sync_trials(
        network, core::make_algorithm3(kDeltaEst), trial);
    return std::make_pair(det.completion_slots.summarize().mean,
                          alg3.completion_slots.summarize().mean);
  };

  // (a) N sweep at fixed |U| = 32.
  util::Table table_n({"N", "deterministic slots", "alg3 slots",
                       "N x |U|"});
  std::vector<double> ns;
  std::vector<double> det_means_n;
  for (const net::NodeId n : {8u, 16u, 32u, 64u}) {
    const net::Network network = pooled_workload(n, 32, 2);
    const auto [det, alg3] = run_pair(network, 32);
    ns.push_back(n);
    det_means_n.push_back(det);
    table_n.row()
        .cell(static_cast<std::size_t>(n))
        .cell(det, 1)
        .cell(alg3, 1)
        .cell(static_cast<std::size_t>(n) * 32);
    csv.field("vs_n").field(static_cast<std::size_t>(n)).field(det);
    csv.field(alg3).field(static_cast<std::size_t>(n) * 32);
    csv.end_row();
  }
  std::printf("(a) N sweep at |U|=32:\n%s\n", table_n.render().c_str());

  // (b) |U| sweep at fixed N = 16.
  util::Table table_u({"|U|", "deterministic slots", "alg3 slots",
                       "N x |U|"});
  std::vector<double> us;
  std::vector<double> det_means_u;
  std::vector<double> alg3_means_u;
  for (const net::ChannelId universe : {8u, 16u, 32u, 64u}) {
    const net::Network network = pooled_workload(16, universe, 3);
    const auto [det, alg3] = run_pair(network, universe);
    us.push_back(universe);
    det_means_u.push_back(det);
    alg3_means_u.push_back(alg3);
    table_u.row()
        .cell(static_cast<std::size_t>(universe))
        .cell(det, 1)
        .cell(alg3, 1)
        .cell(16ul * universe);
    csv.field("vs_u").field(static_cast<std::size_t>(universe)).field(det);
    csv.field(alg3).field(16ul * universe);
    csv.end_row();
  }
  std::printf("(b) |U| sweep at N=16:\n%s\n", table_u.render().c_str());

  const auto fit_n = util::linear_fit(ns, det_means_n);
  const auto fit_u = util::linear_fit(us, det_means_u);
  runner::print_verdict(fit_n.r2 > 0.95 && fit_n.slope > 0.0,
                        "deterministic slots linear in N (r2 > 0.95)");
  runner::print_verdict(fit_u.r2 > 0.95 && fit_u.slope > 0.0,
                        "deterministic slots linear in |U| (r2 > 0.95)");
  const double alg3_spread =
      *std::max_element(alg3_means_u.begin(), alg3_means_u.end()) /
      *std::min_element(alg3_means_u.begin(), alg3_means_u.end());
  runner::print_verdict(alg3_spread < 2.0,
                        "alg3 unaffected by |U| (max/min < 2)");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e20_deterministic_baseline", reproduce_table,
      {{"experiment", "E20"},
       {"topology", "clique"},
       {"universe", "8"},
       {"set_size", "4"},
       {"trials_per_row", "20"}});
}
