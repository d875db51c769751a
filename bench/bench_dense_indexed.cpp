// Dense-regime microbenchmark for the indexed reception hot path.
//
// In a dense network (N >= 256, mean degree Δ ≈ N/4) the reference
// resolution scans every in-neighbor of every listener in every slot:
// O(N·Δ) span checks per slot. The indexed path instead scatters from the
// transmitter side: each of the slot's transmitters walks its out-arcs
// once, ≈ p·N·Δ visits when the transmit probability p is low (Algorithm
// 3 with a large Δ_est). This bench measures both paths on the same
// workload, checks they agree bit-for-bit, and passes iff the indexed path
// sustains >= 2x the reference throughput.
#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr double kEdgeProbability = 0.25;  // mean in-degree ≈ N/4
constexpr std::size_t kDeltaEst = 256;     // low transmit probability
constexpr std::uint64_t kSlots = 300;      // fixed work per engine run

[[nodiscard]] net::Network dense_network(net::NodeId n) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kErdosRenyi;
  config.n = n;
  config.er_edge_probability = kEdgeProbability;
  config.channels = runner::ChannelKind::kHomogeneous;
  config.universe = 8;
  config.set_size = 8;
  return runner::build_scenario(config, 11);
}

[[nodiscard]] sim::SlotEngineConfig dense_engine(bool indexed) {
  sim::SlotEngineConfig engine;
  engine.max_slots = kSlots;
  engine.stop_when_complete = false;
  engine.indexed_reception = indexed;
  return engine;
}

void reproduce_table() {
  runner::print_banner(
      "DENSE / indexed reception",
      "the transmitter-side scatter beats the per-listener in-link "
      "scan by >= 2x in dense networks (N >= 256, Delta ~ N/4)",
      "Erdos-Renyi p=0.25, homogeneous channels |U|=|A|=8, Alg 3 "
      "D_est=256, 300 slots/run, serial trials");

  auto csv_file = runner::open_results_csv("dense_indexed");
  util::CsvWriter csv(csv_file);
  csv.header({"n", "path", "trials", "elapsed_s", "trials_per_s"});

  util::Table table({"N", "mean deg", "ref s", "indexed s", "speedup",
                     "identical"});
  double speedup_at_256 = 0.0;
  bool all_identical = true;
  for (const net::NodeId n : {256u, 384u}) {
    const net::Network network = dense_network(n);
    const auto factory = core::make_algorithm3(kDeltaEst);

    // Bit-identity spot check on one shared seed before timing.
    sim::SlotEngineConfig check_a = dense_engine(true);
    sim::SlotEngineConfig check_b = dense_engine(false);
    check_a.seed = check_b.seed = 99;
    const auto ra = sim::run_slot_engine(network, factory, check_a);
    const auto rb = sim::run_slot_engine(network, factory, check_b);
    const bool identical =
        ra.state.reception_count() == rb.state.reception_count() &&
        ra.state.covered_links() == rb.state.covered_links();
    all_identical = all_identical && identical;

    double elapsed[2] = {0.0, 0.0};
    for (const bool indexed : {false, true}) {
      runner::SyncTrialConfig trial;
      trial.trials = 5;
      trial.seed = 7;
      trial.threads = 1;  // serial: wall-clock compares engine work only
      trial.engine = dense_engine(indexed);
      const auto stats = runner::run_sync_trials(network, factory, trial);
      elapsed[indexed ? 1 : 0] = stats.elapsed_seconds;
      benchx::report_throughput(indexed ? "indexed" : "reference", stats);
      csv.field(static_cast<std::size_t>(n));
      csv.field(indexed ? "indexed" : "reference").field(stats.trials);
      csv.field(stats.elapsed_seconds).field(stats.trials_per_second());
      csv.end_row();
    }
    const double speedup =
        elapsed[1] <= 0.0 ? 0.0 : elapsed[0] / elapsed[1];
    if (n == 256) speedup_at_256 = speedup;
    const double mean_degree =
        static_cast<double>(network.links().size()) / n;
    table.row()
        .cell(static_cast<std::size_t>(n))
        .cell(mean_degree, 1)
        .cell(elapsed[0], 3)
        .cell(elapsed[1], 3)
        .cell(speedup, 2)
        .cell(identical ? 1 : 0);
  }
  std::printf("\n%s\n", table.render().c_str());

  runner::print_verdict(all_identical,
                        "indexed path reproduces the reference exactly");
  std::printf("speedup at N=256: %.2fx\n", speedup_at_256);
  runner::print_verdict(speedup_at_256 >= 2.0,
                        "indexed >= 2x reference throughput at N=256, "
                        "Delta ~ N/4");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "dense_indexed", reproduce_table,
      {{"topology", "erdos_renyi p=0.25"},
       {"n", "256,384"},
       {"channels", "homogeneous |U|=|A|=8"},
       {"policy", "algorithm3 delta_est=256"},
       {"slots_per_run", "300"},
       {"threads", "1 (serial timing)"}});
}
