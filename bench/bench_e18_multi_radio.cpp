// E18 — multiple transceivers (extension; model of related work [19]).
// The paper's single-transceiver model (§II) is the hard case; [19]
// assumes several interfaces per node. Striping the spectrum across R
// radios runs R parallel Algorithm-3 instances:
//   - each stripe has ≈ S/R channels, so per-stripe rendezvous is R× more
//     likely, and
//   - R stripes progress simultaneously,
// predicting a superlinear (up to R²-ish, until contention saturates)
// latency reduction. This bench measures the speedup curve.
#include <vector>

#include "bench_common.hpp"
#include "core/multi_radio.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 12;

[[nodiscard]] net::Network workload(std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kClique;
  config.n = 10;
  config.channels = runner::ChannelKind::kHomogeneous;
  config.universe = 8;
  config.set_size = 8;
  return runner::build_scenario(config, seed);
}

void reproduce_table() {
  runner::print_banner(
      "E18 / multiple transceivers (extension; cf. [19])",
      "R spectrum-striped radios run R parallel Alg-3 instances: latency "
      "drops superlinearly in R until contention saturates",
      "clique n=10, homogeneous channels |U|=|A|=8, 30 trials/row");

  auto csv_file = runner::open_results_csv("e18_multi_radio");
  util::CsvWriter csv(csv_file);
  csv.header({"radios", "mean_slots", "p95_slots", "speedup_vs_r1"});

  const net::Network network = workload(2);

  util::Table table({"radios R", "mean slots", "p95 slots",
                     "speedup vs R=1"});
  std::vector<double> radio_counts;
  std::vector<double> means;
  double r1_mean = 0.0;
  bool monotone = true;
  double previous = 1e300;
  for (const unsigned radios : {1u, 2u, 4u, 8u}) {
    // The root seed 80+radios reproduces the per-trial seeds of earlier
    // revisions (the runner derives trial t's seed the same way), so the
    // completion statistics are bit-identical to the direct-loop version.
    runner::MultiRadioTrialConfig trial;
    trial.trials = 30;
    trial.seed = 80 + radios;
    trial.engine.max_slots = 5'000'000;
    const auto stats = runner::run_multi_radio_trials(
        network, core::make_multi_radio_alg3(radios, kDeltaEst), trial);
    const auto summary = stats.completion_slots.summarize();
    if (radios == 1) r1_mean = summary.mean;
    monotone &= summary.mean <= previous * 1.1;  // noise margin
    previous = summary.mean;
    radio_counts.push_back(radios);
    means.push_back(summary.mean);
    table.row()
        .cell(static_cast<std::size_t>(radios))
        .cell(summary.mean, 1)
        .cell(summary.p95, 1)
        .cell(benchx::ratio(r1_mean, summary.mean), 2);
    csv.field(static_cast<std::size_t>(radios)).field(summary.mean);
    csv.field(summary.p95).field(benchx::ratio(r1_mean, summary.mean));
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());

  util::PlotOptions plot;
  plot.x_label = "radios per node";
  plot.y_label = "mean discovery slots";
  std::printf("%s\n", util::ascii_plot(radio_counts, means, plot).c_str());

  runner::print_verdict(monotone, "latency non-increasing in R");
  runner::print_verdict(means.front() > 2.5 * means[1],
                        "R=2 beats R=1 by more than 2.5x (superlinear: "
                        "stripes shrink AND parallelize)");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e18_multi_radio", reproduce_table,
      {{"experiment", "E18"},
       {"topology", "clique n=10"},
       {"channels", "homogeneous |U|=8"},
       {"radios", "swept"},
       {"trials_per_row", "30"}});
}
