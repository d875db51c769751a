// E13 — energy-to-discovery. The neighbor-discovery line of work the paper
// builds on (birthday protocols [1], asynchronous wakeup [12], probing
// [17]) treats radio energy as the first-class cost. This bench compares
// the algorithms and the universal-set baseline on total radio energy spent
// until discovery completes (tx = 1.0, rx = 0.8, idle = 0.05 per slot).
//
// Expected shape: the baseline wastes energy in proportion to |U| (it must
// idle through foreign channels but still burns slots); Algorithm 4's lower
// duty cycle (the extra 1/3 in its transmit probability) trades time for
// energy efficiency per frame.
#include <map>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "sim/slot_engine.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr std::size_t kDeltaEst = 24;

// Channel sets live in a fixed 12-channel pool embedded into the agreed
// universe, so spans and ρ are identical across universe sizes (see E6).
[[nodiscard]] net::Network workload(net::ChannelId universe,
                                    std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kClique;
  config.n = 8;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 12;
  config.set_size = 4;
  const net::Network pool_net = runner::build_scenario(config, seed);
  std::vector<net::ChannelSet> embedded;
  embedded.reserve(pool_net.node_count());
  for (net::NodeId u = 0; u < pool_net.node_count(); ++u) {
    net::ChannelSet s(universe);
    for (const net::ChannelId c : pool_net.available(u).to_vector()) {
      s.insert(c);
    }
    embedded.push_back(std::move(s));
  }
  return net::Network(pool_net.topology(), std::move(embedded));
}

struct EnergyStats {
  util::RunningStats slots;
  util::RunningStats energy;
  std::size_t completed = 0;
};

[[nodiscard]] EnergyStats measure(const net::Network& network,
                                  const sim::SyncPolicyFactory& factory,
                                  std::size_t trials, std::uint64_t seed) {
  EnergyStats stats;
  const util::SeedSequence seeds(seed);
  for (std::size_t t = 0; t < trials; ++t) {
    sim::SlotEngineConfig engine;
    engine.max_slots = 50'000'000;
    engine.seed = seeds.derive(t);
    const auto result = sim::run_slot_engine(network, factory, engine);
    if (!result.complete) continue;
    ++stats.completed;
    stats.slots.add(static_cast<double>(result.completion_slot));
    stats.energy.add(sim::total_activity(result.activity).energy());
  }
  return stats;
}

void reproduce_table() {
  runner::print_banner(
      "E13 / energy to discovery",
      "baseline energy grows with |U| (idling through foreign channels); "
      "the paper's algorithms spend energy proportional to their slot "
      "count only",
      "clique n=8, uniform-random channels |A|=4, tx=1.0 rx=0.8 idle=0.05");

  auto csv_file = runner::open_results_csv("e13_energy");
  util::CsvWriter csv(csv_file);
  csv.header({"universe", "algorithm", "mean_slots", "mean_energy",
              "energy_per_link"});

  util::Table table({"|U|", "algorithm", "mean slots", "mean energy",
                     "energy/link"});
  std::map<net::ChannelId, double> baseline_energy;
  std::map<net::ChannelId, double> alg3_energy;
  for (const net::ChannelId universe : {12u, 96u, 384u}) {
    const net::Network network = workload(universe, 2);
    const double links = static_cast<double>(network.links().size());

    struct Entry {
      const char* name;
      sim::SyncPolicyFactory factory;
    };
    const Entry entries[] = {
        {"alg1", core::make_algorithm1(kDeltaEst)},
        {"alg3", core::make_algorithm3(kDeltaEst)},
        {"baseline", core::make_universal_baseline(universe, 0.5)},
    };
    for (const Entry& entry : entries) {
      const EnergyStats stats =
          measure(network, entry.factory, 25, 50 + universe);
      table.row()
          .cell(static_cast<std::size_t>(universe))
          .cell(entry.name)
          .cell(stats.slots.mean(), 1)
          .cell(stats.energy.mean(), 1)
          .cell(stats.energy.mean() / links, 2);
      csv.field(static_cast<std::size_t>(universe)).field(entry.name);
      csv.field(stats.slots.mean()).field(stats.energy.mean());
      csv.field(stats.energy.mean() / links);
      csv.end_row();
      if (std::string_view(entry.name) == "baseline") {
        baseline_energy[universe] = stats.energy.mean();
      } else if (std::string_view(entry.name) == "alg3") {
        alg3_energy[universe] = stats.energy.mean();
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(
      baseline_energy[384] > 3.0 * baseline_energy[12],
      "baseline energy grows unboundedly with |U| (idle slots are cheap "
      "but not free)");
  runner::print_verdict(alg3_energy[384] < 2.0 * alg3_energy[12],
                        "alg3 energy roughly independent of |U|");
  runner::print_verdict(alg3_energy[384] < baseline_energy[384] / 2.0,
                        "at |U|=384 the paper's algorithm is >2x more "
                        "energy-efficient (and ~30x faster)");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e13_energy", reproduce_table,
      {{"experiment", "E13"},
       {"topology", "clique n=8"},
       {"set_size", "4"},
       {"energy", "tx=1.0 rx=0.8 idle=0.05"}});
}
