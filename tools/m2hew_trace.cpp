// m2hew_trace — run a short discovery and print the execution timeline
// (the textual analogue of the paper's Fig. 1/2) plus the reception log.
// A debugging lens on the radio schedule: columns are slots, rows are
// nodes, T<c>/R<c>/. are transmit/receive/quiet on channel c.
//
//   $ m2hew_trace --topology=line --n=4 --slots=40
//   $ m2hew_trace --algorithm=alg1 --delta-est=16 --slots=60 --seed=3
//
// Any [scenario] knob of the knob table (runner/knobs.hpp) is a flag;
// --help lists them with their ranges.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runner/knobs.hpp"
#include "runner/scenario.hpp"
#include "sim/slot_engine.hpp"
#include "sim/trace.hpp"
#include "util/flags.hpp"

namespace {

using namespace m2hew;

struct Options {
  runner::SweepSpec spec;
  std::uint64_t slots = 40;
};

[[nodiscard]] bool traced_knob(const runner::Knob<runner::SweepSpec>& row) {
  return row.section == "scenario" || row.key == "algorithm" ||
         row.key == "delta-est" || row.key == "seed";
}

[[noreturn]] void usage_error(const std::string& message) {
  runner::exit_usage("m2hew_trace", message);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  Options options;
  runner::ScenarioConfig& scenario = options.spec.scenario;
  scenario.topology = runner::TopologyKind::kLine;
  scenario.n = 4;
  scenario.channels = runner::ChannelKind::kUniformRandom;
  scenario.universe = 6;
  scenario.set_size = 3;
  static const std::vector<runner::Knob<Options>> trace_knobs = {
      runner::knob<&Options::slots>("", "slots", "slots", runner::at_least(1),
                                    "timeline window")};
  runner::read_flags<Options>("m2hew_trace", "execution timeline viewer",
                              flags, trace_knobs, options, options.spec,
                              traced_knob);
  std::string error;
  if (!runner::check_scenario(scenario, runner::Surface::kCli, &error)) {
    usage_error(error);
  }
  const runner::Algorithm& algorithm =
      *runner::find_algorithm(options.spec.algorithm);
  if (algorithm.make_async != nullptr) {
    usage_error("--algorithm=" + options.spec.algorithm +
                " runs on real time; the timeline is slotted");
  }
  const std::uint64_t seed = options.spec.seed;
  const std::uint64_t slots = options.slots;
  const std::string& algorithm_name = options.spec.algorithm;

  const net::Network network = runner::build_scenario(scenario, seed);
  std::printf("scenario: %s\n", runner::describe(scenario).c_str());
  for (net::NodeId u = 0; u < network.node_count(); ++u) {
    std::printf("node %3u available:", u);
    for (const auto c : network.available(u).to_vector()) {
      std::printf(" %u", c);
    }
    std::printf("\n");
  }
  const sim::SyncPolicyFactory factory = algorithm.sync_factory(
      options.spec.delta_est, network.universe_size());

  sim::Trace trace;
  sim::SlotEngineConfig engine;
  engine.max_slots = slots;
  engine.seed = seed;
  engine.stop_when_complete = false;
  struct Reception {
    std::uint64_t slot;
    net::NodeId from;
    net::NodeId to;
    net::ChannelId channel;
  };
  std::vector<Reception> receptions;
  engine.on_reception = [&receptions](std::uint64_t slot, net::NodeId from,
                                      net::NodeId to, net::ChannelId c) {
    receptions.push_back({slot, from, to, c});
  };
  const auto result =
      sim::run_slot_engine(network, sim::traced(factory, trace), engine);

  std::printf("\ntimeline (%s, %llu slots; T<c> transmit, R<c> receive, "
              "'.' quiet):\n\n%s",
              algorithm_name.c_str(), static_cast<unsigned long long>(slots),
              trace.render_timeline(0, slots).c_str());

  std::printf("\nreceptions (%zu):\n", receptions.size());
  for (const Reception& r : receptions) {
    std::printf("  slot %4llu: %u -> %u on channel %u\n",
                static_cast<unsigned long long>(r.slot), r.from, r.to,
                r.channel);
  }
  std::printf("\ncoverage after %llu slots: %zu / %zu links%s\n",
              static_cast<unsigned long long>(slots),
              result.state.covered_links(), result.state.total_links(),
              result.complete ? " (complete)" : "");
  return 0;
}
