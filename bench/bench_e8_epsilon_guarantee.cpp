// E8 — the ε-guarantee common to Theorems 1, 3 and 9: running each
// algorithm for exactly its theorem budget must fail with probability at
// most ε.
//
// Reproduced series: ε ∈ {0.5, 0.2, 0.1, 0.05} × {Alg 1, Alg 3, Alg 4};
// report empirical failure rates with Wilson 95% intervals and check the
// interval's lower end does not exceed ε.
#include <cmath>
#include <memory>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 8;

[[nodiscard]] net::Network workload(std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kClique;
  config.n = 6;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 8;
  config.set_size = 4;
  return runner::build_scenario(config, seed);
}

void reproduce_table() {
  runner::print_banner(
      "E8 / epsilon guarantee",
      "running for the theorem budget fails with probability <= eps "
      "(Theorems 1, 3, 9)",
      "clique n=6, uniform-random channels |U|=8 |A|=4, 200 trials/cell");

  auto csv_file = runner::open_results_csv("e8_epsilon_guarantee");
  util::CsvWriter csv(csv_file);
  csv.header({"algorithm", "epsilon", "budget", "trials", "failures",
              "failure_rate", "wilson_lo", "wilson_hi"});

  const net::Network network = workload(2);
  constexpr std::size_t kTrials = 200;

  util::Table table({"algorithm", "eps", "budget", "failures",
                     "failure rate", "95% interval", "ok?"});
  bool all_ok = true;

  for (const double epsilon : {0.5, 0.2, 0.1, 0.05}) {
    const auto params = benchx::bound_params(network, kDeltaEst, epsilon);

    // Algorithm 1 at the Theorem 1 slot budget.
    {
      const auto budget = static_cast<std::uint64_t>(
          std::ceil(core::theorem1_slot_bound(params)));
      runner::SyncTrialConfig trial;
      trial.trials = kTrials;
      trial.seed = 11;
      trial.engine.max_slots = budget;
      const auto stats = runner::run_sync_trials(
          network, core::make_algorithm1(kDeltaEst), trial);
      const std::size_t failures = stats.trials - stats.completed;
      const auto iv = util::wilson_interval(failures, stats.trials);
      const bool ok = iv.lo <= epsilon;
      all_ok &= ok;
      char interval[40];
      std::snprintf(interval, sizeof(interval), "[%.3f, %.3f]", iv.lo, iv.hi);
      table.row()
          .cell("alg1 / thm1")
          .cell(epsilon, 2)
          .cell(budget)
          .cell(failures)
          .cell(1.0 - stats.success_rate(), 3)
          .cell(interval)
          .cell(ok ? "yes" : "NO");
      csv.field("alg1").field(epsilon).field(budget).field(stats.trials);
      csv.field(failures).field(1.0 - stats.success_rate());
      csv.field(iv.lo).field(iv.hi);
      csv.end_row();
    }

    // Algorithm 3 at the Theorem 3 slot budget.
    {
      const auto budget = static_cast<std::uint64_t>(
          std::ceil(core::theorem3_slot_bound(params)));
      runner::SyncTrialConfig trial;
      trial.trials = kTrials;
      trial.seed = 12;
      trial.engine.max_slots = budget;
      const auto stats = runner::run_sync_trials(
          network, core::make_algorithm3(kDeltaEst), trial);
      const std::size_t failures = stats.trials - stats.completed;
      const auto iv = util::wilson_interval(failures, stats.trials);
      const bool ok = iv.lo <= epsilon;
      all_ok &= ok;
      char interval[40];
      std::snprintf(interval, sizeof(interval), "[%.3f, %.3f]", iv.lo, iv.hi);
      table.row()
          .cell("alg3 / thm3")
          .cell(epsilon, 2)
          .cell(budget)
          .cell(failures)
          .cell(1.0 - stats.success_rate(), 3)
          .cell(interval)
          .cell(ok ? "yes" : "NO");
      csv.field("alg3").field(epsilon).field(budget).field(stats.trials);
      csv.field(failures).field(1.0 - stats.success_rate());
      csv.field(iv.lo).field(iv.hi);
      csv.end_row();
    }

    // Algorithm 4, budgeted in full frames per node via max_real_time:
    // the Theorem 10 real-time bound from T_s = 0 with ideal clocks.
    {
      const double rt_budget =
          core::theorem10_realtime_bound(params, 3.0, 1.0 / 7.0);
      runner::AsyncTrialConfig trial;
      trial.trials = 50;  // async trials are costlier
      trial.seed = 13;
      trial.engine.frame_length = 3.0;
      trial.engine.max_real_time = rt_budget;
      trial.engine.clock_builder = [](net::NodeId, std::uint64_t seed) {
        return std::make_unique<sim::PiecewiseDriftClock>(
            sim::PiecewiseDriftClock::Config{.max_drift = 1.0 / 7.0,
                                             .min_segment = 15.0,
                                             .max_segment = 60.0},
            seed);
      };
      const auto stats = runner::run_async_trials(
          network, core::make_algorithm4(kDeltaEst), trial);
      const std::size_t failures = stats.trials - stats.completed;
      const auto iv = util::wilson_interval(failures, stats.trials);
      const bool ok = iv.lo <= epsilon;
      all_ok &= ok;
      char interval[40];
      std::snprintf(interval, sizeof(interval), "[%.3f, %.3f]", iv.lo, iv.hi);
      table.row()
          .cell("alg4 / thm9+10")
          .cell(epsilon, 2)
          .cell(static_cast<std::size_t>(rt_budget))
          .cell(failures)
          .cell(1.0 - stats.success_rate(), 3)
          .cell(interval)
          .cell(ok ? "yes" : "NO");
      csv.field("alg4").field(epsilon)
          .field(static_cast<std::size_t>(rt_budget)).field(stats.trials);
      csv.field(failures).field(1.0 - stats.success_rate());
      csv.field(iv.lo).field(iv.hi);
      csv.end_row();
    }
  }
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(all_ok,
                        "every empirical failure rate consistent with <= eps "
                        "(Wilson lower bound)");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e8_epsilon_guarantee", reproduce_table,
      {{"experiment", "E8"},
       {"topology", "clique n=6"},
       {"universe", "8"},
       {"set_size", "4"},
       {"trials_per_cell", "200"}});
}
