// m2hew_cli — run neighbor-discovery experiments from the command line.
//
// Examples:
//   m2hew_cli --topology=clique --n=16 --algorithm=alg3 --trials=30
//   m2hew_cli --topology=unit-disk --n=24 --channels=primary-users
//             --algorithm=alg4 --delta-est=8 --drift=0.14   (one line)
//   m2hew_cli --topology=line --channels=chain --set-size=8 --overlap=2
//             --algorithm=alg1 --epsilon=0.05               (one line)
//
// Every flag is a row of the knob table (runner/knobs.hpp) or of the
// front-end table below; --help is generated from both. A bad value, a
// rule between flags that does not hold, or an unknown flag exits 2 with
// a one-line diagnostic before any trial runs.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_radio.hpp"
#include "core/termination.hpp"
#include "net/serialize.hpp"
#include "runner/knobs.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "sim/clock.hpp"
#include "sim/encounter.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;
using runner::Knob;
using runner::knob;

/// The front-end knobs a sweep spec does not have.
struct Options {
  runner::SweepSpec spec;
  std::size_t threads = 0;
  double epsilon = 0.1;
  double loss = 0.0;
  double drift = 1.0 / 7.0;
  double drift_wander = 0.0;
  double frame_length = 3.0;
  std::uint32_t radios = 1;
  std::uint64_t terminate_after = 0;
  std::string save_network;
  std::string load_network;
};

/// The CLI's own defaults, applied before any flag is read: 16 nodes over
/// 10 uniformly drawn channels, a 10^7-slot budget and unit-disk radius
/// 0.4 (unit-disk and primary-user networks). kImpliedDefaults are the
/// ones that follow another flag.
[[nodiscard]] Options preset() {
  Options options;
  options.spec = runner::spec_preset();
  options.spec.max_slots = 10'000'000;
  runner::ScenarioConfig& scenario = options.spec.scenario;
  scenario.n = 16;
  scenario.universe = 10;
  scenario.channels = runner::ChannelKind::kUniformRandom;
  scenario.ud_radius = 0.4;
  scenario.max_size = scenario.set_size;
  return options;
}

constexpr const char* kImpliedDefaults =
    "\nUnless given, --topology follows --channels=chain (line) and "
    "--channels=primary-users (unit-disk),\nand --max-size follows "
    "--set-size.\n";

template <auto F>
[[nodiscard]] Knob<Options> front(std::string_view flag, runner::Range range,
                                  std::string_view doc) {
  return knob<F>("", flag, flag, range, doc);
}

[[nodiscard]] const std::vector<Knob<Options>>& front_end_knobs() {
  static const std::vector<Knob<Options>> table = {
      knob<&Options::spec, &runner::SweepSpec::algorithm>(
          "", "policy", "policy", runner::kAny,
          "alias for --algorithm (--algorithm wins when both are given)",
          nullptr, runner::algorithm_names()),
      front<&Options::threads>("threads", runner::kAny,
                               "trial fan-out; 0 = all cores, 1 = serial "
                               "(results identical either way)"),
      front<&Options::epsilon>("epsilon", runner::kUnitOpen,
                               "failure budget for bound reporting"),
      front<&Options::loss>("loss", runner::kUnit,
                            "per-reception loss probability"),
      front<&Options::drift>("drift", runner::kUnitOpenHi,
                             "alg4 max clock drift"),
      front<&Options::drift_wander>(
          "drift-wander", runner::kUnitOpenHi,
          "alg4 drift re-drawn per segment within delta (replaces --drift)"),
      front<&Options::frame_length>("frame-length", runner::above(0),
                                    "alg4 frame length"),
      front<&Options::radios>("radios", runner::at_least(1),
                              "multi-radio alg3: transceivers per node"),
      front<&Options::terminate_after>(
          "terminate-after", runner::kAny,
          "silence-based termination after this many slots (0 = off)"),
      front<&Options::save_network>("save-network", runner::kAny,
                                    "write the generated network and exit"),
      front<&Options::load_network>(
          "load-network", runner::kAny,
          "run on a saved network (overrides the network flags)"),
  };
  return table;
}

/// One-line usage diagnostic and exit 2, so a bad knob fails fast instead
/// of tripping a CHECK deep in the engine.
[[noreturn]] void usage_error(const std::string& message) {
  runner::exit_usage("m2hew_cli", message);
}

/// The slot-time fault plan on the async engine's real-time axis.
[[nodiscard]] sim::AsyncFaultPlan on_real_time(const sim::SlotFaultPlan& slot) {
  sim::AsyncFaultPlan faults;
  faults.churn.crash_probability = slot.churn.crash_probability;
  faults.churn.earliest_crash = static_cast<double>(slot.churn.earliest_crash);
  faults.churn.latest_crash = static_cast<double>(slot.churn.latest_crash);
  faults.churn.min_down = static_cast<double>(slot.churn.min_down);
  faults.churn.max_down = static_cast<double>(slot.churn.max_down);
  faults.churn.reset_policy_on_recovery = slot.churn.reset_policy_on_recovery;
  faults.burst_loss = slot.burst_loss;
  faults.adversary = slot.adversary;
  return faults;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  Options options = preset();
  runner::read_flags<Options>(
      "m2hew_cli", "M2HeW neighbor-discovery simulator", flags,
      front_end_knobs(), options, options.spec,
      [](const Knob<runner::SweepSpec>&) { return true; }, kImpliedDefaults);

  runner::SweepSpec& spec = options.spec;
  runner::ScenarioConfig& scenario = spec.scenario;
  const runner::MobilitySpec& mobility = spec.mobility;
  // Defaults that follow another flag unless given explicitly: chain
  // channels run on a line, primary users on a unit disk, and variable
  // sets range up to --set-size.
  if (!flags.has("topology")) {
    if (scenario.channels == runner::ChannelKind::kChainOverlap) {
      scenario.topology = runner::TopologyKind::kLine;
    } else if (scenario.channels == runner::ChannelKind::kPrimaryUsers) {
      scenario.topology = runner::TopologyKind::kUnitDisk;
    }
  }
  if (scenario.channels == runner::ChannelKind::kVariableRandom &&
      !flags.has("max-size")) {
    scenario.max_size = scenario.set_size;
  }
  runner::finish_faults(spec);
  std::string error;
  if (!runner::check_rules(spec, runner::Surface::kCli, options.loss,
                           &error) ||
      (options.load_network.empty() &&
       !runner::check_scenario(scenario, runner::Surface::kCli, &error))) {
    usage_error(error);
  }
  const runner::Algorithm& algorithm =
      *runner::find_algorithm(spec.algorithm);
  const bool async = algorithm.make_async != nullptr;
  const bool mobile = mobility.enabled;
  const std::pair<bool, const char*> front_end_rules[] = {
      {spec.trust.enabled && async,
       "--trust is slotted-only (alg4 runs on real time)"},
      {spec.trust.enabled && options.radios != 1,
       "--trust supports single-radio runs only"},
      {mobile && !options.load_network.empty(),
       "--mobility=rwp cannot run on a loaded network (trajectories need "
       "the unit-disk scenario)"},
      {mobile && !options.save_network.empty(),
       "--mobility=rwp has no single link set to --save-network"},
      {mobile && async,
       "--mobility=rwp is slotted-only (alg4 runs on real time)"},
      {mobile && options.radios != 1,
       "--mobility=rwp supports single-radio runs only"},
      {spec.kernel == runner::SyncKernel::kSoa && options.terminate_after > 0,
       "--terminate-after requires --kernel=engine"},
  };
  for (const auto& [violated, message] : front_end_rules) {
    if (violated) usage_error(message);
  }

  sim::SlotEngineCommon engine_knobs;
  engine_knobs.loss_probability = options.loss;
  engine_knobs.faults = spec.faults;
  // Mobile runs own their network through the epoch provider: engines
  // run on the union network and swap per-epoch adjacency internally.
  runner::SweepPoint point;
  std::string scenario_text;
  if (!options.load_network.empty()) {
    scenario_text = "loaded from " + options.load_network;
    point.engine.max_slots = spec.max_slots;
    point.engine.faults = spec.faults;
    try {
      point.static_network.emplace(
          net::load_network_file(options.load_network));
    } catch (const std::runtime_error& e) {
      usage_error(options.load_network + ": " + e.what());
    }
  } else if (runner::build_sweep_point(spec, 0.0, point, &error)) {
    scenario_text = runner::describe(scenario, engine_knobs, spec.kernel) +
                    runner::describe_mobility(mobility);
  } else {
    usage_error(error);
  }
  const net::Network& network = point.network();
  point.engine.loss_probability = options.loss;

  if (!options.save_network.empty()) {
    net::save_network_file(options.save_network, network);
    std::printf("network written to %s\n", options.save_network.c_str());
    return 0;
  }

  core::BoundParams params;
  params.n = network.node_count();
  params.s = network.max_channel_set_size();
  params.delta = std::max<std::size_t>(1, network.max_channel_degree());
  params.delta_est = spec.delta_est;
  params.rho = network.min_span_ratio();
  params.epsilon = options.epsilon;

  std::printf("scenario: %s\n", scenario_text.c_str());
  std::printf("policy:   %s\n",
              runner::describe_policy(spec.algorithm, spec.delta_est).c_str());
  std::printf("network:  N=%u S=%zu Delta=%zu rho=%.4f links=%zu arcs=%zu\n",
              network.node_count(), params.s, params.delta, params.rho,
              network.links().size(), network.topology().arc_count());

  util::Table table({"metric", "value"});
  auto report_throughput = [&](const auto& stats) {
    table.row().cell("threads").cell(stats.threads_used);
    table.row().cell("wall time (s)").cell(stats.elapsed_seconds, 3);
    table.row().cell("trials/sec").cell(stats.trials_per_second(), 1);
  };

  if (options.radios > 1) {
    // Multi-radio Algorithm 3 (extension; cf. related work [19]), through
    // the same trial runner as the single-radio engines — so it shares
    // the loss model, the worker pool and the bench run log.
    runner::MultiRadioTrialConfig trial;
    trial.trials = spec.trials;
    trial.seed = spec.seed;
    trial.threads = options.threads;
    trial.engine = point.engine;
    const auto stats = runner::run_multi_radio_trials(
        network, core::make_multi_radio_alg3(options.radios, spec.delta_est),
        trial);
    const auto summary = stats.completion_slots.summarize();
    table.row().cell("radios").cell(static_cast<std::size_t>(options.radios));
    table.row().cell("trials").cell(stats.trials);
    table.row().cell("completed").cell(stats.completed);
    table.row().cell("success rate").cell(stats.success_rate(), 3);
    table.row().cell("mean slots").cell(summary.mean, 1);
    table.row().cell("max slots").cell(summary.max, 1);
    report_throughput(stats);
    std::printf("\n%s", table.render().c_str());
    runner::print_robustness(stats.robustness);
    return 0;
  }

  const double bound = algorithm.bound(params, network);
  const std::string bound_name(algorithm.bound_label);
  runner::RobustnessStats robustness;
  runner::EncounterStats encounter_stats;
  if (async) {
    runner::AsyncTrialConfig trial;
    trial.trials = spec.trials;
    trial.seed = spec.seed;
    trial.threads = options.threads;
    trial.engine.frame_length = options.frame_length;
    trial.engine.max_real_time = 1e8;
    trial.engine.loss_probability = options.loss;
    trial.engine.faults = on_real_time(spec.faults);
    if (options.drift_wander > 0.0) {
      trial.engine.faults.drift_wander.enabled = true;
      trial.engine.faults.drift_wander.max_drift = options.drift_wander;
    }
    if (options.drift > 0.0) {
      trial.engine.clock_builder = [drift = options.drift](
                                       net::NodeId, std::uint64_t clock_seed) {
        return std::make_unique<sim::PiecewiseDriftClock>(
            sim::PiecewiseDriftClock::Config{.max_drift = drift,
                                             .min_segment = 15.0,
                                             .max_segment = 60.0},
            clock_seed);
      };
    }
    auto factory = algorithm.make_async(spec.delta_est);
    if (options.terminate_after > 0) {
      factory =
          core::with_termination(std::move(factory), options.terminate_after);
    }
    const auto stats = runner::run_async_trials(network, factory, trial);
    const auto frames = stats.max_full_frames.summarize();
    table.row().cell("trials").cell(stats.trials);
    table.row().cell("completed").cell(stats.completed);
    table.row().cell("success rate").cell(stats.success_rate(), 3);
    table.row().cell("mean full frames").cell(frames.mean, 1);
    table.row().cell("p95 full frames").cell(frames.p95, 1);
    table.row().cell(bound_name).cell(bound, 0);
    report_throughput(stats);
    robustness = stats.robustness;
  } else {
    runner::SyncTrialConfig trial;
    trial.trials = spec.trials;
    trial.seed = spec.seed;
    trial.threads = options.threads;
    trial.engine = point.engine;
    // Mobile run: track per-contact detection through the reception hook.
    std::optional<sim::EncounterIndex> encounter_index;
    if (point.provider != nullptr) {
      encounter_index.emplace(*point.provider, mobility.epoch_slots,
                              trial.engine.max_slots);
      trial.encounters = &*encounter_index;
    }
    const auto stats = runner::run_spec_trials(network, spec, trial,
                                               network.universe_size(),
                                               options.terminate_after);
    const auto summary = stats.completion_slots.summarize();
    table.row().cell("trials").cell(stats.trials);
    table.row().cell("completed").cell(stats.completed);
    table.row().cell("success rate").cell(stats.success_rate(), 3);
    table.row().cell("mean slots").cell(summary.mean, 1);
    table.row().cell("p50 slots").cell(summary.p50, 1);
    table.row().cell("p95 slots").cell(summary.p95, 1);
    table.row().cell("max slots").cell(summary.max, 1);
    table.row().cell(bound_name).cell(bound, 0);
    report_throughput(stats);
    robustness = stats.robustness;
    encounter_stats = stats.encounters;
  }

  std::printf("\n%s", table.render().c_str());
  runner::print_robustness(robustness);
  if (encounter_stats.enabled()) runner::print_encounters(encounter_stats);
  return 0;
}
