// E14 — termination detection (extension; the paper's algorithms never
// halt, related work [22] adds explicit termination under stronger
// assumptions). The silence heuristic of core/termination.hpp stops a node
// after T slots with no new neighbor.
//
// Reproduced trade-off: sweeping T shows the completeness/energy frontier —
// small T saves energy but starves neighbors that had not yet heard the
// stopped node; T of the order of the per-link coverage time (≈ the
// theorem budget divided by ln(N²/ε)) restores completeness while still
// halting the network.
#include <cmath>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "core/termination.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "sim/slot_engine.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 8;

[[nodiscard]] net::Network workload(std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kUnitDisk;
  config.n = 16;
  config.ud_radius = 0.4;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 8;
  config.set_size = 4;
  return runner::build_scenario(config, seed);
}

void reproduce_table() {
  runner::print_banner(
      "E14 / termination detection (extension)",
      "silence-threshold T trades energy for completeness; T ~ per-link "
      "coverage time restores completeness while halting the network",
      "unit disk n=16, uniform-random channels |U|=8 |A|=4, 40 trials/row");

  auto csv_file = runner::open_results_csv("e14_termination");
  util::CsvWriter csv(csv_file);
  csv.header({"threshold", "completion_rate", "mean_active_slots_per_node",
              "mean_energy", "mean_links_covered_frac"});

  const net::Network network = workload(2);
  const double total_links = static_cast<double>(network.links().size());
  // Reference scale: theorem budget / ln(N²/ε) ≈ expected per-link
  // coverage time.
  const auto params = benchx::bound_params(network, kDeltaEst, 0.1);
  const double per_link_scale =
      core::theorem3_slot_bound(params) /
      std::log(static_cast<double>(params.n * params.n) / params.epsilon);

  util::Table table({"threshold T", "completion rate", "links covered",
                     "active slots/node", "energy"});
  double loose_rate = 0.0;
  double tight_rate = 1.0;
  for (const std::uint64_t threshold :
       {16ull, 64ull, 256ull, 1024ull, 4096ull}) {
    std::size_t completed = 0;
    util::RunningStats active;
    util::RunningStats energy;
    util::RunningStats covered;
    constexpr std::size_t kTrials = 40;
    const util::SeedSequence seeds(900);
    for (std::size_t t = 0; t < kTrials; ++t) {
      sim::SlotEngineConfig engine;
      engine.max_slots = 500'000;
      engine.seed = seeds.derive(t, threshold);
      engine.stop_when_complete = true;
      const auto result = sim::run_slot_engine(
          network,
          core::with_termination(core::make_algorithm3(kDeltaEst),
                                 threshold),
          engine);
      if (result.complete) ++completed;
      const auto total = sim::total_activity(result.activity);
      active.add(static_cast<double>(total.transmit + total.receive) /
                 static_cast<double>(network.node_count()));
      energy.add(total.energy());
      covered.add(static_cast<double>(result.state.covered_links()) /
                  total_links);
    }
    const double rate =
        static_cast<double>(completed) / static_cast<double>(40);
    if (threshold == 16) tight_rate = rate;
    if (threshold == 4096) loose_rate = rate;
    table.row()
        .cell(threshold)
        .cell(rate, 2)
        .cell(covered.mean(), 3)
        .cell(active.mean(), 1)
        .cell(energy.mean(), 1);
    csv.field(threshold).field(rate).field(active.mean());
    csv.field(energy.mean()).field(covered.mean());
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("per-link coverage-time scale for this network: %.0f slots\n\n",
              per_link_scale);
  runner::print_verdict(loose_rate >= 0.95,
                        "a threshold of a few thousand slots (>= per-link "
                        "scale) completes reliably");
  runner::print_verdict(tight_rate < loose_rate,
                        "aggressive thresholds lose completeness (the "
                        "frontier exists)");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e14_termination", reproduce_table,
      {{"experiment", "E14"},
       {"topology", "unit_disk n=16"},
       {"universe", "8"},
       {"set_size", "4"},
       {"trials_per_row", "40"}});
}
