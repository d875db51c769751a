// E17 — dynamic primary users (extension; the CR motivation of §I/§II made
// temporal). Licensed users appear and disappear with a duty cycle d;
// while active near a node they jam reception and force the node to vacate
// the channel for transmission. A channel is usable for a link only when
// free at both ends, so the effective per-slot coverage probability scales
// roughly with the probability both endpoints see the channel free —
// discovery time should grow smoothly with duty cycle and remain complete
// as long as some spectrum is free often enough.
#include <vector>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "net/primary_user.hpp"
#include "net/topology_gen.hpp"
#include "runner/report.hpp"
#include "sim/slot_engine.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 8;
constexpr net::ChannelId kUniverse = 6;

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

void reproduce_table() {
  runner::print_banner(
      "E17 / dynamic primary users (extension)",
      "discovery stays complete under on/off licensed users; latency grows "
      "smoothly with PU duty cycle",
      "unit disk n=14, |U|=6 all channels, 10 PUs period=300 slots, "
      "25 trials/row");

  auto csv_file = runner::open_results_csv("e17_dynamic_spectrum");
  util::CsvWriter csv(csv_file);
  csv.header({"duty", "completed", "mean_slots", "p95_slots",
              "mean_vs_clean"});

  const Deployment dep = make_deployment(3);

  util::Table table({"PU duty", "completed", "mean slots", "p95 slots",
                     "vs duty=0"});
  double clean_mean = 0.0;
  double previous_mean = 0.0;
  bool monotone = true;
  bool all_complete = true;
  for (const double duty : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    util::Rng rng(4);  // same PU geometry per row; only duty varies
    const auto field = net::DynamicPrimaryUserField::random(
        kUniverse, 10, 1.0, 0.2, 0.4, 300, duty, rng);
    const auto schedule = field.interference_for(dep.positions);

    util::Samples slots;
    std::size_t completed = 0;
    constexpr std::size_t kTrials = 25;
    const util::SeedSequence seeds(60);
    for (std::size_t t = 0; t < kTrials; ++t) {
      sim::SlotEngineConfig engine;
      engine.max_slots = 5'000'000;
      engine.seed = seeds.derive(t);
      engine.interference = schedule;
      const auto result = sim::run_slot_engine(
          dep.network, core::make_algorithm3(kDeltaEst), engine);
      if (!result.complete) continue;
      ++completed;
      slots.add(static_cast<double>(result.completion_slot));
    }
    all_complete &= completed == kTrials;
    const auto summary = slots.summarize();
    if (duty == 0.0) clean_mean = summary.mean;
    // Allow small non-monotone wiggle from noise.
    if (summary.mean < previous_mean * 0.7) monotone = false;
    previous_mean = summary.mean;
    table.row()
        .cell(duty, 1)
        .cell(completed)
        .cell(summary.mean, 1)
        .cell(summary.p95, 1)
        .cell(benchx::ratio(summary.mean, clean_mean), 2);
    csv.field(duty).field(completed).field(summary.mean).field(summary.p95);
    csv.field(benchx::ratio(summary.mean, clean_mean));
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(all_complete,
                        "discovery completes at every PU duty cycle up to "
                        "0.8");
  runner::print_verdict(monotone,
                        "latency grows (within noise) with duty cycle");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e17_dynamic_spectrum", reproduce_table,
      {{"experiment", "E17"},
       {"topology", "unit_disk n=14"},
       {"universe", "6"},
       {"primary_users", "10 period=300 duty swept"},
       {"trials_per_row", "25"}});
}
