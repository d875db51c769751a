// E16 — what does collision detection buy? (extension study)
//
// The paper's model forbids distinguishing collisions from silence (§II);
// related work [21], [22] assumes the stronger collision-detecting radio.
// We compare, with no degree knowledge anywhere:
//   - Algorithm 2 (paper): blind estimate sweep d = 2, 3, 4, ...
//   - adaptive (extension): AIMD degree estimation from listen feedback
//   - Algorithm 3 given an oracle Δ (the information-limit reference)
//
// Expected shape (measured): the adaptive controller beats the sweep on
// small/sparse instances where its estimate converges quickly, and loses
// on dense cliques where Algorithm 2's sweep is already near-optimal —
// collision detection is NOT a free win, matching the paper's choice to
// analyze the weaker model.
#include <algorithm>

#include "bench_common.hpp"
#include "core/adaptive.hpp"
#include "core/algorithms.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

[[nodiscard]] net::Network clique_workload(net::NodeId n) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kClique;
  config.n = n;
  config.channels = runner::ChannelKind::kHomogeneous;
  config.universe = 4;
  config.set_size = 4;
  return runner::build_scenario(config, 1);
}

[[nodiscard]] net::Network disk_workload(net::NodeId n) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kUnitDisk;
  config.n = n;
  config.ud_radius = 0.35;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 8;
  config.set_size = 4;
  return runner::build_scenario(config, 2);
}

void run_row(const net::Network& network, const char* label,
             util::Table& table, util::CsvWriter& csv, bool& adaptive_ok) {
  runner::SyncTrialConfig trial;
  trial.trials = 30;
  trial.seed = 99;
  trial.engine.max_slots = 5'000'000;

  const std::size_t oracle_delta =
      std::max<std::size_t>(1, network.max_channel_degree());
  const auto alg2 = runner::run_sync_trials(
      network, core::make_algorithm2(), trial);
  const auto adaptive = runner::run_sync_trials(
      network, core::make_adaptive(), trial);
  const auto oracle = runner::run_sync_trials(
      network, core::make_algorithm3(oracle_delta), trial);

  adaptive_ok &= adaptive.completed == adaptive.trials;
  const double m2 = alg2.completion_slots.summarize().mean;
  const double ma = adaptive.completion_slots.summarize().mean;
  const double mo = oracle.completion_slots.summarize().mean;
  table.row()
      .cell(label)
      .cell(network.max_channel_degree())
      .cell(m2, 1)
      .cell(ma, 1)
      .cell(mo, 1)
      .cell(benchx::ratio(ma, m2), 2);
  csv.field(label).field(network.max_channel_degree());
  csv.field(m2).field(ma).field(mo).field(benchx::ratio(ma, m2));
  csv.end_row();
}

void reproduce_table() {
  runner::print_banner(
      "E16 / collision detection (extension; cf. [21], [22])",
      "AIMD adaptation from collision feedback vs the paper's blind sweep "
      "(Alg 2) vs an oracle-degree Alg 3",
      "cliques (dense, homogeneous) and unit disks (sparse, "
      "heterogeneous), 30 trials/row");

  auto csv_file = runner::open_results_csv("e16_collision_detection");
  util::CsvWriter csv(csv_file);
  csv.header({"workload", "delta", "alg2_mean", "adaptive_mean",
              "oracle_mean", "adaptive_over_alg2"});

  util::Table table({"workload", "Delta", "alg2 (paper)", "adaptive (CD)",
                     "oracle alg3", "adaptive/alg2"});
  bool adaptive_ok = true;
  run_row(clique_workload(6), "clique n=6", table, csv, adaptive_ok);
  run_row(clique_workload(10), "clique n=10", table, csv, adaptive_ok);
  run_row(clique_workload(16), "clique n=16", table, csv, adaptive_ok);
  run_row(disk_workload(16), "unit-disk n=16", table, csv, adaptive_ok);
  run_row(disk_workload(32), "unit-disk n=32", table, csv, adaptive_ok);
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(adaptive_ok,
                        "the adaptive policy completes on every workload");
  std::printf(
      "reading: collision detection helps where contention feedback is\n"
      "informative (sparse/heterogeneous), but the paper's blind d+=1\n"
      "sweep is already near-optimal on dense cliques — consistent with\n"
      "the paper analyzing the weaker no-collision-detection model.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e16_collision_detection", reproduce_table,
      {{"experiment", "E16"},
       {"topology", "clique+unit_disk"},
       {"trials_per_row", "30"}});
}
