// E21 — discovery under churn and bursty loss (extension; robustness of
// the paper's randomized schedules when the static-network assumptions of
// §III are violated). Nodes crash and recover on seed-derived schedules,
// links lose messages in Gilbert–Elliott bursts instead of i.i.d., and a
// combined row adds scheduled primary users switching on/off mid-run.
// Because every transmission slot is an independent random draw, the
// algorithms have no schedule state to corrupt: discovery should degrade
// smoothly with churn probability and burst severity, surviving-neighbor
// recall should stay near 1, and recovered nodes should be re-heard
// (time-to-rediscovery) without any protocol changes.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "net/primary_user.hpp"
#include "net/topology_gen.hpp"
#include "runner/report.hpp"
#include "runner/trials.hpp"
#include "sim/fault_plan.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 8;
constexpr net::ChannelId kUniverse = 6;
constexpr std::size_t kTrials = 20;
constexpr std::uint64_t kMaxSlots = 2'000'000;

struct Deployment {
  net::Network network;
  std::vector<net::Point> positions;
};

[[nodiscard]] Deployment make_deployment(std::uint64_t seed) {
  util::Rng rng(seed);
  auto geo = net::make_connected_unit_disk(14, 1.0, 0.45, rng);
  net::Network network(
      geo.topology,
      std::vector<net::ChannelSet>(14, net::ChannelSet::full(kUniverse)));
  return {std::move(network), std::move(geo.positions)};
}

[[nodiscard]] sim::SlotFaultPlan churn_plan(double crash_probability) {
  sim::SlotFaultPlan plan;
  plan.churn.crash_probability = crash_probability;
  plan.churn.earliest_crash = 100;
  plan.churn.latest_crash = 1'500;
  plan.churn.min_down = 100;
  plan.churn.max_down = 600;
  plan.churn.reset_policy_on_recovery = true;
  return plan;
}

[[nodiscard]] sim::SlotFaultPlan burst_plan(double loss_bad) {
  sim::SlotFaultPlan plan;
  plan.burst_loss.enabled = true;
  plan.burst_loss.p_good_to_bad = 0.02;
  plan.burst_loss.p_bad_to_good = 0.1;
  plan.burst_loss.loss_good = 0.0;
  plan.burst_loss.loss_bad = loss_bad;
  return plan;
}

struct Row {
  std::string label;
  sim::SlotFaultPlan plan;
};

void reproduce_table() {
  runner::print_banner(
      "E21 / churn + bursty loss (extension)",
      "memoryless randomized schedules degrade smoothly under node churn "
      "and Gilbert-Elliott burst loss; recovered nodes are rediscovered",
      "unit disk n=14, |U|=6 all channels, alg3, crash window [100,1500] "
      "down [100,600], GE p_gb=0.02 p_bg=0.1, 20 trials/row");

  const Deployment dep = make_deployment(3);

  std::vector<Row> rows;
  rows.push_back({"fault-free", {}});
  for (const double p : {0.2, 0.4, 0.6}) {
    rows.push_back({"churn p=" + std::to_string(p).substr(0, 3),
                    churn_plan(p)});
  }
  for (const double bad : {0.5, 0.8, 0.95}) {
    rows.push_back({"burst bad=" + std::to_string(bad).substr(0, 4),
                    burst_plan(bad)});
  }
  {
    // Combined: churn + bursts + 6 licensed users switching on/off.
    Row combined{"combined", churn_plan(0.3)};
    combined.plan.burst_loss = burst_plan(0.8).burst_loss;
    util::Rng rng(7);
    const auto field = net::ScheduledPrimaryUserField::random(
        kUniverse, 6, 1.0, 0.2, 0.4, 3'000.0, 200.0, 800.0, rng);
    combined.plan.spectrum = field.users();
    combined.plan.positions = dep.positions;
    rows.push_back(std::move(combined));
  }

  auto csv_file = runner::open_results_csv("e21_churn_robustness");
  util::CsvWriter csv(csv_file);
  csv.header({"regime", "completed", "mean_slots", "surviving_recall",
              "ghost_entries", "recovered_links", "rediscovered_links",
              "mean_rediscovery"});

  util::Table table({"regime", "completed", "mean slots", "recall",
                     "ghosts", "rediscovered", "t-rediscover"});
  bool recall_high = true;
  bool clean_complete = true;
  bool some_rediscovery = false;
  for (const Row& row : rows) {
    runner::SyncTrialConfig trial;
    trial.trials = kTrials;
    trial.seed = 60;
    trial.engine.max_slots = kMaxSlots;
    trial.engine.faults = row.plan;
    const auto stats = runner::run_sync_trials(
        dep.network, core::make_algorithm3(kDeltaEst), trial);
    const runner::RobustnessStats& robust = stats.robustness;
    const util::Summary recall = robust.surviving_recall.summarize();
    const util::Summary ghosts = robust.ghost_entries.summarize();
    const util::Summary redisc = robust.rediscovery_times.summarize();
    const double mean_slots = stats.completion_slots.summarize().mean;
    if (!row.plan.any()) {
      clean_complete &= stats.completed == stats.trials;
    } else {
      recall_high &= recall.mean >= 0.9;
    }
    if (row.plan.churn.enabled()) {
      some_rediscovery |= robust.rediscovered_links > 0;
    }
    table.row()
        .cell(row.label)
        .cell(stats.completed)
        .cell(mean_slots, 1)
        .cell(robust.enabled() ? recall.mean : 1.0, 3)
        .cell(robust.enabled() ? ghosts.mean : 0.0, 1)
        .cell(robust.rediscovered_links)
        .cell(robust.rediscovery_times.count() > 0 ? redisc.mean : 0.0, 1);
    csv.field(row.label).field(stats.completed).field(mean_slots);
    csv.field(robust.enabled() ? recall.mean : 1.0);
    csv.field(robust.enabled() ? ghosts.mean : 0.0);
    csv.field(robust.recovered_links).field(robust.rediscovered_links);
    csv.field(robust.rediscovery_times.count() > 0 ? redisc.mean : 0.0);
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(clean_complete,
                        "fault-free row completes in every trial");
  runner::print_verdict(recall_high,
                        "surviving-neighbor recall stays >= 0.9 in every "
                        "fault regime");
  runner::print_verdict(some_rediscovery,
                        "recovered nodes are rediscovered under churn");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e21_churn_robustness", reproduce_table,
      {{"experiment", "E21"},
       {"topology", "unit_disk n=14"},
       {"universe", "6"},
       {"faults", "churn window [100,1500] down [100,600]; GE bursts; "
                  "6 scheduled PUs (combined row)"},
       {"trials_per_row", "20"}});
}
