// E11 — §V extension (a): asymmetric communication graphs. The paper claims
// the algorithms extend to asymmetric graphs; here every undirected edge
// loses one direction with probability p_asym and we verify discovery of
// the *directed* ground truth still completes, with latency comparable to
// the symmetric baseline (per remaining link there is no structural
// penalty — only fewer links to cover).
#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 16;

[[nodiscard]] runner::ScenarioConfig base_config(double drop) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kErdosRenyi;
  config.n = 16;
  config.er_edge_probability = 0.5;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 10;
  config.set_size = 4;
  config.asymmetric_drop = drop;
  return config;
}

void reproduce_table() {
  runner::print_banner(
      "E11 / asymmetric communication graphs (SV extension a)",
      "discovery of the directed ground truth completes on asymmetric "
      "graphs; per-link latency comparable to the symmetric case",
      "Erdos-Renyi n=16 p=0.5, uniform-random channels |U|=10 |A|=4");

  auto csv_file = runner::open_results_csv("e11_asymmetric");
  util::CsvWriter csv(csv_file);
  csv.header({"asym_drop", "links", "success_rate", "alg1_mean", "alg3_mean",
              "alg4_mean_frames"});

  util::Table table({"p_asym", "links", "success", "alg1 mean", "alg3 mean",
                     "alg4 mean frames"});
  bool all_complete = true;
  double sym_per_link = 0.0;
  double worst_per_link_ratio = 0.0;
  for (const double drop : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const net::Network network = runner::build_scenario(base_config(drop), 2);

    runner::SyncTrialConfig sync_trial;
    sync_trial.trials = 30;
    sync_trial.seed = 30 + static_cast<std::uint64_t>(drop * 100);
    sync_trial.engine.max_slots = 10'000'000;
    const auto alg1 = runner::run_sync_trials(
        network, core::make_algorithm1(kDeltaEst), sync_trial);
    const auto alg3 = runner::run_sync_trials(
        network, core::make_algorithm3(kDeltaEst), sync_trial);

    runner::AsyncTrialConfig async_trial;
    async_trial.trials = 15;
    async_trial.seed = sync_trial.seed;
    async_trial.engine.frame_length = 3.0;
    async_trial.engine.max_real_time = 1e7;
    const auto alg4 = runner::run_async_trials(
        network, core::make_algorithm4(kDeltaEst), async_trial);

    all_complete &= alg1.completed == alg1.trials &&
                    alg3.completed == alg3.trials &&
                    alg4.completed == alg4.trials;

    const double m1 = alg1.completion_slots.summarize().mean;
    const double m3 = alg3.completion_slots.summarize().mean;
    const double m4 = alg4.max_full_frames.summarize().mean;
    const double per_link =
        m3 / static_cast<double>(network.links().size());
    if (drop == 0.0) {
      sym_per_link = per_link;
    } else {
      worst_per_link_ratio =
          std::max(worst_per_link_ratio, per_link / sym_per_link);
    }
    table.row()
        .cell(drop, 2)
        .cell(network.links().size())
        .cell(alg3.success_rate(), 2)
        .cell(m1, 1)
        .cell(m3, 1)
        .cell(m4, 1);
    csv.field(drop).field(network.links().size());
    csv.field(alg3.success_rate()).field(m1).field(m3).field(m4);
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(all_complete,
                        "all three algorithms complete on every asymmetry "
                        "level");
  runner::print_verdict(worst_per_link_ratio < 4.0,
                        "per-link discovery cost stays within 4x of the "
                        "symmetric case");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e11_asymmetric", reproduce_table,
      {{"experiment", "E11"},
       {"topology", "erdos_renyi n=16 p=0.5 asymmetric"},
       {"universe", "10"},
       {"set_size", "4"}});
}
