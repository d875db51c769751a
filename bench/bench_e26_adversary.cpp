// E26 — attack resilience (extension; adversarial nodes and trust-scored
// neighbor maintenance). A seed-derived fraction of the deployment turns
// malicious — always-on channel jammers, Byzantine advertisers announcing
// fake IDs at an elevated rate, selective non-responders — and the bench
// asks two questions the paper's static honest-node model cannot: how much
// recall on honest links survives each attack (jammer/Byzantine arcs are
// blind by construction and excluded from the denominator), and how badly
// Byzantine ghosts pollute the tables (precision under attack). A final
// pair of rows replays the Byzantine cell with core::with_trust wrapped
// around the same policy factory: the rate-anomaly trust table should
// isolate the fake IDs (time-to-isolation) and lift precision back up at
// the same adversary fraction — the tentpole comparison of this
// experiment.
//
// The attacked cells never "complete" (blind links are undiscoverable), so
// every row runs to the same fixed slot budget and the verdicts are about
// end-state table quality, not completion time. Δ_est is deliberately
// loose (24 > |U| = 6, so honest p = 1/4) and the Byzantine transmit
// probability deliberately hot (0.9): the per-ID decode-rate gap is what
// the trust window detects.
//
// CI smoke caps trials per row with M2HEW_E26_TRIALS (e.g. 4); without
// the cap each row runs 20 trials.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "core/trust.hpp"
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

constexpr net::NodeId kN = 16;
constexpr net::ChannelId kUniverse = 6;
constexpr std::size_t kDeltaEst = 24;  // honest p = min(1/2, 6/24) = 1/4
constexpr double kByzantineTx = 0.9;
constexpr std::uint64_t kMaxSlots = 12'000;
constexpr std::uint64_t kRootSeed = 61;

[[nodiscard]] std::size_t trials_per_row() {
  const char* env = std::getenv("M2HEW_E26_TRIALS");
  return env == nullptr ? 20 : std::strtoull(env, nullptr, 10);
}

[[nodiscard]] net::Network make_deployment(std::uint64_t seed) {
  util::Rng rng(seed);
  auto geo = net::make_connected_unit_disk(kN, 1.0, 0.45, rng);
  return net::Network(
      geo.topology,
      std::vector<net::ChannelSet>(kN, net::ChannelSet::full(kUniverse)));
}

[[nodiscard]] sim::SlotFaultPlan adversary_plan(double fraction,
                                                sim::AdversaryAttack attack) {
  sim::SlotFaultPlan plan;
  plan.adversary.fraction = fraction;
  plan.adversary.attack = attack;
  plan.adversary.byzantine_tx = kByzantineTx;
  plan.adversary.victim_fraction = 0.5;
  return plan;
}

/// Scenario-matched trust knobs: an honest (listener, sender) pair decodes
/// ~p(1-p)/|U| ≈ 3 announcements per 128-slot window here; the Byzantine
/// fake lands ~3.5x that. max_per_window = 6 sits between the two, and
/// block_slots outlives the run so an isolated fake stays isolated.
[[nodiscard]] core::TrustConfig trust_config() {
  core::TrustConfig trust;
  trust.enabled = true;
  trust.threshold = 0.3;
  trust.reward = 0.02;
  trust.rate_penalty = 0.35;
  trust.decay = 0.999;
  trust.rate_window = 128;
  trust.max_per_window = 6;
  trust.block_slots = kMaxSlots;
  trust.entry_window = 2 * kMaxSlots;
  return trust;
}

struct Row {
  std::string label;
  std::string attack;
  double fraction = 0.0;
  bool trust = false;
  sim::SlotFaultPlan plan;
};

void reproduce_table() {
  const std::size_t trials = trials_per_row();
  runner::print_banner(
      "E26 / adversarial nodes + trust maintenance (extension)",
      "jammers, Byzantine advertisers and non-responders degrade recall "
      "only on blind arcs; trust-scored admission isolates fake IDs and "
      "restores table precision at the same adversary fraction",
      "unit disk n=16 r=0.45, |U|=6 all channels, alg3 Δ_est=24 (p=1/4), "
      "byzantine tx=0.9, " + std::to_string(kMaxSlots) + " slots/run, " +
          std::to_string(trials) + " trials/row");

  const net::Network network = make_deployment(3);

  std::vector<Row> rows;
  rows.push_back({"baseline", "none", 0.0, false, {}});
  rows.push_back({"frozen f=0", "none", 0.0, false,
                  adversary_plan(0.0, sim::AdversaryAttack::kMix)});
  rows.push_back({"jam f=0.25", "jam", 0.25, false,
                  adversary_plan(0.25, sim::AdversaryAttack::kJam)});
  for (const double f : {0.1, 0.25, 0.4}) {
    rows.push_back({"byzantine f=" + std::to_string(f).substr(0, 4),
                    "byzantine", f, false,
                    adversary_plan(f, sim::AdversaryAttack::kByzantine)});
  }
  rows.push_back({"non-resp f=0.25", "non-responder", 0.25, false,
                  adversary_plan(0.25, sim::AdversaryAttack::kNonResponder)});
  rows.push_back({"mix f=0.25", "mix", 0.25, false,
                  adversary_plan(0.25, sim::AdversaryAttack::kMix)});
  rows.push_back({"byz f=0.25 +trust", "byzantine", 0.25, true,
                  adversary_plan(0.25, sim::AdversaryAttack::kByzantine)});
  rows.push_back({"mix f=0.25 +trust", "mix", 0.25, true,
                  adversary_plan(0.25, sim::AdversaryAttack::kMix)});

  auto csv_file = runner::open_results_csv("e26_adversary");
  util::CsvWriter csv(csv_file);
  csv.header({"regime", "attack", "fraction", "trust", "completed",
              "mean_slots", "surviving_recall", "precision", "fake_entries",
              "isolated_fakes", "honest_isolated", "mean_isolation"});

  util::Table table({"regime", "completed", "recall", "precision", "fakes",
                     "isolated", "fp", "t-isolate"});

  double baseline_completed = -1.0;
  double baseline_mean_slots = -1.0;
  bool frozen_identical = false;
  bool recall_floor = true;
  bool pollution_real = true;
  bool trust_lifts_precision = true;
  bool trust_isolates = true;
  // Untrusted mean precision per (attack, fraction), for the trust rows.
  double untrusted_precision[2] = {-1.0, -1.0};  // [0]=byzantine, [1]=mix

  for (const Row& row : rows) {
    runner::SyncTrialConfig trial;
    trial.trials = trials;
    trial.seed = kRootSeed;
    trial.engine.max_slots = kMaxSlots;
    trial.engine.faults = row.plan;
    auto factory = core::make_algorithm3(kDeltaEst);
    if (row.trust) factory = core::with_trust(std::move(factory),
                                              trust_config());
    const auto stats = runner::run_sync_trials(network, factory, trial);
    const runner::RobustnessStats& robust = stats.robustness;
    const util::Summary recall = robust.surviving_recall.summarize();
    const util::Summary precision = robust.precision_under_attack.summarize();
    const double mean_slots = stats.completion_slots.count() > 0
                                  ? stats.completion_slots.summarize().mean
                                  : 0.0;
    const double isolation = robust.isolation_times.count() > 0
                                 ? robust.isolation_times.summarize().mean
                                 : 0.0;
    const double recall_mean = robust.enabled() ? recall.mean : 1.0;
    const double precision_mean = robust.adversarial() ? precision.mean : 1.0;

    if (row.label == "baseline") {
      baseline_completed = static_cast<double>(stats.completed);
      baseline_mean_slots = mean_slots;
      frozen_identical = stats.completed == stats.trials;
    }
    if (row.label.rfind("frozen", 0) == 0) {
      // fraction = 0 must be bit-identical to no adversary block at all.
      frozen_identical =
          frozen_identical &&
          static_cast<double>(stats.completed) == baseline_completed &&
          mean_slots == baseline_mean_slots;
    }
    if (!row.trust && (row.attack == "jam" || row.attack == "byzantine") &&
        row.fraction > 0.0) {
      recall_floor &= recall_mean >= 0.95;
    }
    if (!row.trust && row.attack == "byzantine" && row.fraction > 0.0) {
      pollution_real &= robust.fake_entries > 0 && precision_mean < 1.0;
      if (row.fraction == 0.25) untrusted_precision[0] = precision_mean;
    }
    if (!row.trust && row.attack == "mix" && row.fraction == 0.25) {
      untrusted_precision[1] = precision_mean;
    }
    if (row.trust) {
      const double untrusted =
          untrusted_precision[row.attack == "mix" ? 1 : 0];
      trust_lifts_precision &= untrusted >= 0.0 && precision_mean > untrusted;
      trust_isolates &= robust.isolated_fakes > 0 &&
                        robust.isolation_times.count() > 0;
    }

    table.row()
        .cell(row.label)
        .cell(stats.completed)
        .cell(recall_mean, 3)
        .cell(precision_mean, 3)
        .cell(robust.fake_entries)
        .cell(robust.isolated_fakes)
        .cell(robust.honest_isolated)
        .cell(isolation, 1);
    csv.field(row.label).field(row.attack).field(row.fraction);
    csv.field(row.trust ? 1 : 0);
    csv.field(stats.completed).field(mean_slots);
    csv.field(recall_mean).field(precision_mean);
    csv.field(static_cast<unsigned long long>(robust.fake_entries));
    csv.field(static_cast<unsigned long long>(robust.isolated_fakes));
    csv.field(static_cast<unsigned long long>(robust.honest_isolated));
    csv.field(isolation);
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(frozen_identical,
                        "adversary fraction 0 completes every trial and is "
                        "bit-identical to the no-adversary baseline");
  runner::print_verdict(recall_floor,
                        "surviving recall on non-blind links stays >= 0.95 "
                        "under jamming and Byzantine attack");
  runner::print_verdict(pollution_real,
                        "untrusted Byzantine rows admit surviving fake "
                        "entries (precision under attack < 1)");
  runner::print_verdict(trust_lifts_precision,
                        "trust-scored admission yields higher precision "
                        "under attack than the untrusted cell at the same "
                        "adversary fraction");
  runner::print_verdict(trust_isolates,
                        "trust rows isolate at least one fake ID and record "
                        "a finite time-to-isolation");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e26_adversary", reproduce_table,
      {{"experiment", "E26"},
       {"topology", "unit_disk n=16 r=0.45"},
       {"universe", "6"},
       {"algorithm", "alg3 delta_est=24 (p=1/4)"},
       {"grid", "attack {jam,byzantine,non-responder,mix} x fraction "
                "{0,0.1,0.25,0.4}; trust replay of byzantine+mix f=0.25"},
       {"byzantine_tx", "0.9"},
       {"max_slots", "12000"}});
}
