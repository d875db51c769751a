// E12 — §V extension (c): diverse propagation characteristics. The base
// model assumes all channels propagate identically on every link; here a
// random per-(pair, channel) mask thins the usable spans. The effective ρ
// shrinks with the keep probability, and discovery time must track the
// 1/ρ_effective law — the same mechanism as E7 but driven by propagation
// rather than channel availability.
#include <algorithm>
#include <vector>

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

[[nodiscard]] runner::ScenarioConfig base_config(double keep) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kClique;
  config.n = 10;
  config.channels = runner::ChannelKind::kHomogeneous;
  config.universe = 8;
  config.set_size = 8;
  config.propagation = keep >= 1.0 ? runner::PropagationKind::kFull
                                   : runner::PropagationKind::kRandomMask;
  config.prop_keep = keep;
  return config;
}

void reproduce_table() {
  runner::print_banner(
      "E12 / diverse propagation (SV extension c)",
      "per-(link, channel) propagation masks shrink effective rho; "
      "discovery time follows the 1/rho_eff law",
      "clique n=10, homogeneous channels |U|=|A|=8, random masks swept");

  auto csv_file = runner::open_results_csv("e12_propagation");
  util::CsvWriter csv(csv_file);
  csv.header({"keep", "rho_eff", "links", "alg3_mean", "alg3_times_rho",
              "alg4_mean_frames"});

  util::Table table({"keep p", "rho_eff", "links", "alg3 mean",
                     "alg3 mean x rho_eff", "alg4 mean frames"});
  std::vector<double> normalized;
  bool all_complete = true;
  for (const double keep : {1.0, 0.8, 0.6, 0.4, 0.25}) {
    const net::Network network = runner::build_scenario(base_config(keep), 2);

    runner::SyncTrialConfig sync_trial;
    sync_trial.trials = 30;
    sync_trial.seed = 20 + static_cast<std::uint64_t>(keep * 100);
    sync_trial.engine.max_slots = 10'000'000;
    const auto alg3 = runner::run_sync_trials(
        network, core::make_algorithm3(kDeltaEst), sync_trial);

    runner::AsyncTrialConfig async_trial;
    async_trial.trials = 15;
    async_trial.seed = sync_trial.seed;
    async_trial.engine.frame_length = 3.0;
    async_trial.engine.max_real_time = 1e7;
    const auto alg4 = runner::run_async_trials(
        network, core::make_algorithm4(kDeltaEst), async_trial);

    all_complete &=
        alg3.completed == alg3.trials && alg4.completed == alg4.trials;
    const double rho = network.min_span_ratio();
    const double m3 = alg3.completion_slots.summarize().mean;
    normalized.push_back(m3 * rho);
    table.row()
        .cell(keep, 2)
        .cell(rho, 3)
        .cell(network.links().size())
        .cell(m3, 1)
        .cell(m3 * rho, 1)
        .cell(alg4.max_full_frames.summarize().mean, 1);
    csv.field(keep).field(rho).field(network.links().size());
    csv.field(m3).field(m3 * rho);
    csv.field(alg4.max_full_frames.summarize().mean);
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(all_complete,
                        "discovery completes at every propagation density");
  const double norm_max =
      *std::max_element(normalized.begin(), normalized.end());
  const double norm_min =
      *std::min_element(normalized.begin(), normalized.end());
  runner::print_verdict(norm_max <= 4.0 * norm_min,
                        "alg3 mean x rho_eff within 4x across the mask sweep "
                        "(1/rho_eff law, mask-induced)");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e12_propagation", reproduce_table,
      {{"experiment", "E12"},
       {"topology", "clique n=10"},
       {"channels", "homogeneous |U|=8"},
       {"masks", "random swept"}});
}
