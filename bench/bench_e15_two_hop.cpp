// E15 — two-hop neighbor discovery (§I: protocols "implicitly assume that
// all nodes know their one-hop and sometimes even two-hop neighbors").
// Phase 2 re-runs the Algorithm-3 schedule with tables as payloads, so the
// two-hop extension should cost roughly one more Theorem-3 budget: the
// phase-2/phase-1 slot ratio stays O(1) across network sizes.
#include "bench_common.hpp"
#include "core/two_hop.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 8;

[[nodiscard]] net::Network workload(net::NodeId n, std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kUnitDisk;
  config.n = n;
  config.ud_radius = 0.45;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 8;
  config.set_size = 4;
  return runner::build_scenario(config, seed);
}

void reproduce_table() {
  runner::print_banner(
      "E15 / two-hop neighbor discovery (SI motivation)",
      "a table-exchange phase re-running the Alg 3 schedule yields two-hop "
      "knowledge for ~one more Theorem-3 budget (phase ratio O(1))",
      "unit disk, uniform-random channels |U|=8 |A|=4, 25 trials/row");

  auto csv_file = runner::open_results_csv("e15_two_hop");
  util::CsvWriter csv(csv_file);
  csv.header({"n", "success_rate", "phase1_mean", "phase2_mean", "ratio",
              "two_hop_correct_rate"});

  util::Table table({"N", "success", "phase1 slots", "phase2 slots",
                     "phase2/phase1", "2-hop sets correct"});
  bool ratios_bounded = true;
  bool always_correct = true;
  for (const net::NodeId n : {8u, 12u, 16u, 24u, 32u}) {
    const net::Network network = workload(n, 2);
    const auto ground_truth = core::two_hop_ground_truth(network);

    util::RunningStats phase1;
    util::RunningStats phase2;
    std::size_t completed = 0;
    std::size_t correct = 0;
    constexpr std::size_t kTrials = 25;
    const util::SeedSequence seeds(70 + n);
    for (std::size_t t = 0; t < kTrials; ++t) {
      sim::SlotEngineConfig engine;
      engine.max_slots = 10'000'000;
      engine.seed = seeds.derive(t);
      const auto result =
          core::run_two_hop_discovery(network, kDeltaEst, engine);
      if (!result.complete) continue;
      ++completed;
      phase1.add(static_cast<double>(result.phase1_slots));
      phase2.add(static_cast<double>(result.phase2_slots));
      if (result.two_hop == ground_truth) ++correct;
    }
    const double ratio = phase2.mean() / phase1.mean();
    ratios_bounded &= ratio < 3.0;
    always_correct &= correct == completed;
    table.row()
        .cell(static_cast<std::size_t>(n))
        .cell(static_cast<double>(completed) / kTrials, 2)
        .cell(phase1.mean(), 1)
        .cell(phase2.mean(), 1)
        .cell(ratio, 2)
        .cell(static_cast<double>(correct) / static_cast<double>(completed),
              2);
    csv.field(static_cast<std::size_t>(n));
    csv.field(static_cast<double>(completed) / kTrials);
    csv.field(phase1.mean()).field(phase2.mean()).field(ratio);
    csv.field(static_cast<double>(correct) /
              static_cast<double>(completed));
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(ratios_bounded,
                        "phase2/phase1 slot ratio stays O(1) (< 3x) across "
                        "sizes");
  runner::print_verdict(always_correct,
                        "every completed run assembles exactly the "
                        "ground-truth two-hop sets");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e15_two_hop", reproduce_table,
      {{"experiment", "E15"},
       {"topology", "unit_disk"},
       {"universe", "8"},
       {"set_size", "4"},
       {"trials_per_row", "25"}});
}
