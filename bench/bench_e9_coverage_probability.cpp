// E9 — the per-round coverage lower bounds inside the proofs:
//   eq. (6):   a stage of Algorithm 1 covers a link w.p. >= rho/(16 max(S,Δ))
//   Alg 3:     a slot covers a link w.p. >= rho/(8 max(2S, Δ_est))
//   Lemma 5:   an aligned frame pair covers a link w.p. >=
//              rho/(8 max(2S, 3Δ_est))
// plus the ablation DESIGN.md calls out: removing the min(1/2, ·) cap on
// the transmission probability destroys coverage in dense neighborhoods.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "core/transmit_probability.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "sim/async_engine.hpp"
#include "sim/slot_engine.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 4;

[[nodiscard]] net::Network workload(std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kClique;
  config.n = 5;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 6;
  config.set_size = 3;
  return runner::build_scenario(config, seed);
}

// Uncapped-probability ablation policy: transmit w.p. min(1, |A|/Δ_est)
// with NO 1/2 cap — in dense channels nodes talk constantly and never
// listen, so coverage collapses. (Δ_est below the true degree exaggerates
// the effect, which is the point of the cap.)
class UncappedPolicy final : public sim::SyncPolicy {
 public:
  UncappedPolicy(const net::ChannelSet& available, std::size_t delta_est)
      : channels_(available.to_vector()),
        p_(std::min(1.0, static_cast<double>(available.size()) /
                             static_cast<double>(delta_est))) {}

  sim::SlotAction next_slot(util::Rng& rng) override {
    sim::SlotAction action;
    action.channel = rng.pick(std::span<const net::ChannelId>(channels_));
    action.mode = rng.bernoulli(p_) ? sim::Mode::kTransmit
                                    : sim::Mode::kReceive;
    return action;
  }

 private:
  std::vector<net::ChannelId> channels_;
  double p_;
};

// Fraction of single-round trials in which the first listed link is
// covered; `slots` is the round length.
[[nodiscard]] double measure_coverage(const net::Network& network,
                                      const sim::SyncPolicyFactory& factory,
                                      std::uint64_t slots,
                                      std::size_t trials) {
  const net::Link link = network.links()[0];
  std::size_t covered = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    sim::SlotEngineConfig engine;
    engine.max_slots = slots;
    engine.seed = 10'000 + t;
    engine.stop_when_complete = false;
    const auto result = sim::run_slot_engine(network, factory, engine);
    if (result.state.is_covered(link)) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(trials);
}

void reproduce_table() {
  runner::print_banner(
      "E9 / coverage probability lower bounds",
      "per-stage (eq. 6), per-slot (Alg 3) and per-aligned-pair (Lemma 5) "
      "coverage >= the proofs' lower bounds",
      "clique n=5, uniform-random channels |U|=6 |A|=3, 6000 trials each");

  auto csv_file = runner::open_results_csv("e9_coverage_probability");
  util::CsvWriter csv(csv_file);
  csv.header({"round_kind", "measured", "lower_bound", "measured_over_bound"});

  const net::Network network = workload(2);
  const auto params = benchx::bound_params(network, kDeltaEst, 0.1);
  constexpr std::size_t kTrials = 6000;

  util::Table table({"round", "measured coverage", "proof lower bound",
                     "measured/bound"});
  bool all_above = true;

  // (a) eq. (6): one stage of Algorithm 1.
  {
    const double measured = measure_coverage(
        network, core::make_algorithm1(kDeltaEst),
        core::stage_length(kDeltaEst), kTrials);
    const double bound = core::eq6_stage_coverage_lower_bound(params);
    all_above &= measured >= bound;
    table.row().cell("alg1 stage (eq 6)").cell(measured, 4).cell(bound, 4)
        .cell(benchx::ratio(measured, bound), 2);
    csv.field("alg1_stage").field(measured).field(bound);
    csv.field(benchx::ratio(measured, bound));
    csv.end_row();
  }

  // (b) Algorithm 3: one slot.
  {
    const double measured = measure_coverage(
        network, core::make_algorithm3(kDeltaEst), 1, kTrials);
    const double bound = core::alg3_slot_coverage_lower_bound(params);
    all_above &= measured >= bound;
    table.row().cell("alg3 slot").cell(measured, 4).cell(bound, 4)
        .cell(benchx::ratio(measured, bound), 2);
    csv.field("alg3_slot").field(measured).field(bound);
    csv.field(benchx::ratio(measured, bound));
    csv.end_row();
  }

  // (c) Lemma 5: one aligned frame pair — ideal aligned clocks make every
  // frame pair aligned, so one frame per node is one aligned pair.
  {
    const net::Link link = network.links()[0];
    std::size_t covered = 0;
    for (std::size_t t = 0; t < kTrials; ++t) {
      sim::AsyncEngineConfig engine;
      engine.frame_length = 3.0;
      engine.max_real_time = 3.0;  // exactly one frame per node
      engine.seed = 20'000 + t;
      engine.stop_when_complete = false;
      const auto result = sim::run_async_engine(
          network, core::make_algorithm4(kDeltaEst), engine);
      if (result.state.is_covered(link)) ++covered;
    }
    const double measured =
        static_cast<double>(covered) / static_cast<double>(kTrials);
    const double bound = core::lemma5_pair_coverage_lower_bound(params);
    all_above &= measured >= bound;
    table.row().cell("alg4 aligned pair (lem 5)").cell(measured, 4)
        .cell(bound, 4).cell(benchx::ratio(measured, bound), 2);
    csv.field("alg4_pair").field(measured).field(bound);
    csv.field(benchx::ratio(measured, bound));
    csv.end_row();
  }

  // (d) ablation: uncapped transmission probability vs the paper's cap.
  {
    const auto uncapped_factory = [](const net::Network& net_ref,
                                     net::NodeId u)
        -> std::unique_ptr<sim::SyncPolicy> {
      return std::make_unique<UncappedPolicy>(net_ref.available(u), 2);
    };
    const double uncapped =
        measure_coverage(network, uncapped_factory, 1, kTrials);
    const double capped = measure_coverage(
        network, core::make_algorithm3(2), 1, kTrials);
    table.row().cell("ablation: uncapped p").cell(uncapped, 4)
        .cell(0.0, 4).cell(0.0, 2);
    table.row().cell("ablation: capped p (paper)").cell(capped, 4)
        .cell(0.0, 4).cell(0.0, 2);
    csv.field("ablation_uncapped").field(uncapped).field(0.0).field(0.0);
    csv.end_row();
    csv.field("ablation_capped").field(capped).field(0.0).field(0.0);
    csv.end_row();
    runner::print_verdict(capped > uncapped,
                          "the min(1/2, .) cap outperforms uncapped "
                          "transmission probability");
  }

  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(all_above,
                        "all measured coverage probabilities above the "
                        "proofs' lower bounds");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e9_coverage_probability", reproduce_table,
      {{"experiment", "E9"},
       {"topology", "clique n=5"},
       {"universe", "6"},
       {"set_size", "3"},
       {"trials", "6000"}});
}
