// E22 — SoA slot-kernel scaling (docs/BENCHMARKS.md).
//
// The paper's asymptotic claims live at node counts the object-per-node
// slot engine cannot reach: its DiscoveryState alone is an N² matrix. The
// structure-of-arrays kernel (sim/soa_kernel.hpp) replaces it with flat
// per-node arrays and CSR coverage, which is what this bench measures:
//
//   1. a slots/sec-vs-N curve, N = 10³..10⁶, on the two sparse families
//      the large-N story needs (bucketed unit-disk and skip-sampled
//      Erdős–Rényi, both O(n+m) generators), and
//   2. full discovery runs to completion at N >= 10⁵ on both families —
//      the paper's termination event, executed end to end.
//
// Every run goes through runner::run_sync_trials with kernel=soa, so each
// point lands in the BENCH_e22 JSON artifact's run log. The kernel's
// results are pinned bit-identical to the slot engine by
// tests/soa_kernel_test.cpp; this binary only asserts the cheap proxy
// (completion at N >= 10⁵) and reports throughput.
//
// CI smoke caps the sweep with M2HEW_E22_MAX_N (e.g. 20000); without the
// env var the full curve runs and regenerates results/BENCH_e22.json.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/policy_spec.hpp"
#include "net/channel_assign.hpp"
#include "net/topology_gen.hpp"
#include "runner/report.hpp"
#include "runner/trials.hpp"
#include "sim/soa_kernel.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr net::ChannelId kUniverse = 4;   // homogeneous channels
constexpr std::size_t kDeltaEst = 32;     // Algorithm 3 degree bound
constexpr double kMeanDegree = 6.0;

[[nodiscard]] std::uint64_t max_sweep_n() {
  const char* env = std::getenv("M2HEW_E22_MAX_N");
  return env == nullptr ? 1'000'000 : std::strtoull(env, nullptr, 10);
}

// Both families target mean degree ~6 at every N, so the per-slot work per
// node is N-independent and the curve isolates the kernel's scaling.
[[nodiscard]] net::Network sparse_network(const std::string& family,
                                          net::NodeId n, std::uint64_t seed) {
  util::Rng rng(seed);
  net::Topology topology =
      family == "unit-disk"
          // side √n keeps density constant; πr² ≈ 6 neighbors.
          ? net::make_unit_disk_bucketed(n, std::sqrt(static_cast<double>(n)),
                                         1.382, rng)
                .topology
          : net::make_erdos_renyi_sparse(
                n, kMeanDegree / static_cast<double>(n), rng);
  auto assignment = net::homogeneous_assignment(n, kUniverse, kUniverse);
  return net::Network(std::move(topology), std::move(assignment));
}

[[nodiscard]] core::SyncPolicySpec spec() {
  return core::SyncPolicySpec::algorithm3(kDeltaEst);
}

void reproduce_table() {
  runner::print_banner(
      "E22 / SoA kernel scaling",
      "the structure-of-arrays kernel sustains fixed-slot throughput to "
      "N = 10^6 and completes discovery end to end at N >= 10^5",
      "unit-disk (bucketed) and Erdos-Renyi (skip-sampled), mean degree "
      "~6, homogeneous |U|=4, Alg 3 D_est=32, serial trials");

  auto csv_file = runner::open_results_csv("e22_soa_scaling");
  util::CsvWriter csv(csv_file);
  csv.header({"family", "n", "mode", "slots", "trials", "completed",
              "mean_completion_slot", "elapsed_s", "slots_per_s"});

  const std::uint64_t cap = max_sweep_n();
  util::Table table(
      {"family", "N", "mode", "slots/run", "completed", "slots/sec"});

  // 1. Fixed-slot throughput curve. The slot budget shrinks with N so
  // every point does comparable total work (~2e7 node-slots minimum).
  const std::vector<std::uint64_t> curve_ns = {1'000, 10'000, 100'000,
                                               1'000'000};
  for (const std::string family : {"unit-disk", "erdos-renyi"}) {
    for (const std::uint64_t n : curve_ns) {
      if (n > cap) continue;
      const std::uint64_t slots =
          std::max<std::uint64_t>(50, 20'000'000 / n);
      const net::Network network =
          sparse_network(family, static_cast<net::NodeId>(n), 22 + n);

      runner::SyncTrialConfig trial;
      trial.trials = 1;
      trial.seed = 7;
      trial.threads = 1;
      trial.kernel = runner::SyncKernel::kSoa;
      trial.engine.max_slots = slots;
      trial.engine.stop_when_complete = false;
      const auto stats = runner::run_sync_trials(network, spec(), trial);

      const double slots_per_s =
          stats.elapsed_seconds <= 0.0
              ? 0.0
              : static_cast<double>(slots) / stats.elapsed_seconds;
      csv.field(family).field(n).field("curve").field(slots);
      csv.field(stats.trials).field(stats.completed).field(0.0);
      csv.field(stats.elapsed_seconds).field(slots_per_s);
      csv.end_row();
      table.row()
          .cell(family)
          .cell(static_cast<std::size_t>(n))
          .cell("curve")
          .cell(static_cast<std::size_t>(slots))
          .cell(stats.completed)
          .cell(slots_per_s, 0);
    }
  }

  // 2. Completion runs: full discovery at the largest N the cap allows
  // (>= 10⁵ in the checked-in artifact).
  bool completion_ok = true;
  const auto completion_n =
      static_cast<std::uint64_t>(std::min<std::uint64_t>(cap, 100'000));
  for (const std::string family : {"unit-disk", "erdos-renyi"}) {
    const net::Network network =
        sparse_network(family, static_cast<net::NodeId>(completion_n), 99);

    runner::SyncTrialConfig trial;
    trial.trials = 2;
    trial.seed = 13;
    trial.threads = 1;
    trial.kernel = runner::SyncKernel::kSoa;
    trial.engine.max_slots = 200'000;
    trial.engine.stop_when_complete = true;
    const auto stats = runner::run_sync_trials(network, spec(), trial);
    benchx::report_throughput(family.c_str(), stats);
    completion_ok = completion_ok && stats.completed == stats.trials;

    const double mean_slot =
        stats.completed == 0 ? 0.0 : stats.completion_slots.summarize().mean;
    const double slots_per_s =
        stats.elapsed_seconds <= 0.0
            ? 0.0
            : mean_slot * static_cast<double>(stats.completed) /
                  stats.elapsed_seconds;
    csv.field(family).field(completion_n).field("completion").field(0);
    csv.field(stats.trials).field(stats.completed).field(mean_slot);
    csv.field(stats.elapsed_seconds).field(slots_per_s);
    csv.end_row();
    table.row()
        .cell(family)
        .cell(static_cast<std::size_t>(completion_n))
        .cell("completion")
        .cell(static_cast<std::size_t>(0))
        .cell(stats.completed)
        .cell(slots_per_s, 0);
  }

  std::printf("\n%s\n", table.render().c_str());
  runner::print_verdict(
      completion_ok,
      "every completion trial finished discovery within the slot budget");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cap = std::to_string(max_sweep_n());
  return m2hew::benchx::bench_main(
      argc, argv, "e22_soa_scaling", reproduce_table,
      {{"families", "unit-disk (bucketed), erdos-renyi (skip-sampled)"},
       {"mean_degree", "6"},
       {"channels", "homogeneous |U|=4"},
       {"policy", "algorithm3 delta_est=32"},
       {"kernel", "soa"},
       {"curve_n", "1e3,1e4,1e5,1e6 (capped at " + cap + ")"},
       {"completion_n", "min(1e5, cap), 2 trials/family"},
       {"threads", "1 (serial timing)"}});
}
