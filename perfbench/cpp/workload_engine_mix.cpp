// engine-mix: the small-N experiment path (how E1–E26 run).
//
// Connected unit-disk n = 48 (side 1, radius 0.35), |U| = 8, |A(u)| = 4
// drawn uniformly with non-empty spans (ρ = 0.25), Δ_est = 16. Each round
// runs on its own network from a fixed scenario set (so a run averages over
// scenarios the way an experiment sweep does) and makes four
// run_*_trials calls of 100 trials each, at fan-out min(2, nproc):
//
//   slot         run_sync_trials, Algorithm 3, engine kernel
//   slot_faulted the same with churn and Gilbert–Elliott burst loss
//   multi_radio  run_multi_radio_trials, multi-radio Algorithm 3, R = 2
//   async        run_async_trials, Algorithm 4, ideal clocks
//
// A round is one "job". Set-up builds every round's network. After the
// timed calls the first round's slot and slot_faulted calls are rerun with
// kernel=soa and must give identical stats (the engine==soa contract).
// The traced pass also replays the first round trial by trial through
// run_slot_engine / run_multi_radio_engine / run_async_engine with the
// runner's SeedSequence(seed).derive(t) seeds, and checks the replay
// against the calls' completion samples.
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "core/algorithms.hpp"
#include "core/multi_radio.hpp"
#include "core/policy_spec.hpp"
#include "net/channel_assign.hpp"
#include "net/topology_gen.hpp"
#include "runner/trials.hpp"
#include "sim/async_engine.hpp"
#include "sim/multi_radio_engine.hpp"
#include "sim/slot_engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace m2hew;

enum Kind : std::size_t { kSlot, kSlotFaulted, kMultiRadio, kAsync, kKinds };
constexpr const char* kKindName[kKinds] = {"slot", "slot_faulted",
                                           "multi_radio", "async"};
constexpr const char* kRunnerSpan[kKinds] = {
    "runner.run_sync_trials", "runner.run_sync_trials",
    "runner.run_multi_radio_trials", "runner.run_async_trials"};
constexpr const char* kEngineSpan[kKinds] = {
    "sim.slot.run", "sim.slot_faulted.run", "sim.multi_radio.run",
    "sim.async.run"};

constexpr std::uint64_t kMaxSlots = 200'000;
constexpr std::size_t kDeltaEst = 16;
constexpr unsigned kSlotsPerFrame = 3;

// Host seconds per round of four 100-trial calls at fan-out 2 on a 4-core
// x86 box; turns --seconds into a fixed round count (see workload_soa.cpp).
constexpr double kRoundSeconds = 1.35;

// Fan-out 2, not 4: on a shared 4-core host a 4-way call waits for the
// slowest core, which other tenants' load decides; at 4 the same seed's
// trials_per_s spread 10-20% run to run, at 2 under 3%.
constexpr std::size_t kFanoutCap = 2;

constexpr std::uint64_t kScenarioSeed = 48;

struct Shape {
  net::NodeId n = 0;
  double radius = 0.0;
  std::size_t trials_per_call = 0;
  std::size_t rounds = 0;
  std::size_t setup_repeats = 0;
  std::size_t probes = 0;
  std::size_t threads = 0;
  [[nodiscard]] std::size_t calls() const { return rounds * kKinds; }
};

Shape shape_of(const Options& options) {
  Shape shape;
  shape.threads = fanout(kFanoutCap);
  if (options.scale == Scale::kTiny) {
    shape.n = 16;
    shape.radius = 0.5;
    shape.trials_per_call = 8;
    shape.rounds = 2;
    shape.setup_repeats = 3;
    shape.probes = 3;
    return shape;
  }
  shape.n = 48;
  shape.radius = 0.35;
  shape.trials_per_call = 100;
  shape.rounds = static_cast<std::size_t>(
      std::max(2.0, std::round(options.seconds / kRoundSeconds)));
  shape.setup_repeats = 41;
  shape.probes = 21;
  return shape;
}

sim::SlotFaultPlan fault_plan() {
  sim::SlotFaultPlan plan;
  plan.churn = {0.3, 100, 1500, 100, 600, true};
  plan.burst_loss = {true, 0.02, 0.1, 0.0, 0.8};
  return plan;
}

struct Setup {
  std::vector<net::Network> networks;  ///< one per round
  core::SyncPolicySpec spec;
  sim::MultiRadioPolicyFactory multi_radio;
  sim::AsyncPolicyFactory async;
  double gen_s = 0.0, build_s = 0.0;
};

Setup build(const Shape& shape, const std::vector<std::uint64_t>& net_seeds,
            SpanRecorder& recorder) {
  Setup setup;
  setup.networks.reserve(net_seeds.size());
  for (const std::uint64_t seed : net_seeds) {
    util::Rng rng(seed);
    net::Topology topology;
    {
      SpanRecorder::Scope span(recorder, "net.topology_gen");
      topology = net::make_connected_unit_disk(shape.n, 1.0, shape.radius, rng)
                     .topology;
      setup.gen_s += span.elapsed();
    }
    SpanRecorder::Scope span(recorder, "net.network_build");
    auto assignment = net::generate_with_nonempty_spans(topology, 50, [&] {
      return net::uniform_random_assignment(shape.n, 8, 4, rng);
    });
    setup.networks.emplace_back(std::move(topology), std::move(assignment));
    setup.build_s += span.elapsed();
  }
  SpanRecorder::Scope span(recorder, "core.policy_factory");
  setup.spec = core::SyncPolicySpec::algorithm3(kDeltaEst);
  setup.multi_radio = core::make_multi_radio_alg3(2, kDeltaEst);
  setup.async = core::make_algorithm4(kDeltaEst, kSlotsPerFrame);
  return setup;
}

/// One call's deterministic aggregate, in the order the runner folds it.
struct CallOutcome {
  std::size_t completed = 0;
  std::vector<double> completion;  ///< completion slot / time after T_s
  std::vector<double> recall;
  std::size_t recovered = 0, rediscovered = 0;

  void fold(Digest& digest) const {
    digest.add(static_cast<std::uint64_t>(completed));
    for (const double v : completion) digest.add(v);
    for (const double v : recall) digest.add(v);
    digest.add(static_cast<std::uint64_t>(recovered));
    digest.add(static_cast<std::uint64_t>(rediscovered));
  }
  bool operator==(const CallOutcome&) const = default;
};

template <typename Stats>
CallOutcome outcome_of(const Stats& stats, const util::Samples& completion) {
  CallOutcome out;
  out.completed = stats.completed;
  out.completion.assign(completion.values().begin(), completion.values().end());
  const runner::RobustnessStats& robust = stats.robustness;
  out.recall.assign(robust.surviving_recall.values().begin(),
                    robust.surviving_recall.values().end());
  out.recovered = robust.recovered_links;
  out.rediscovered = robust.rediscovered_links;
  return out;
}

struct Call {
  CallOutcome outcome;
  double node_slots = 0.0;  ///< async: node-frames × slots per frame
};

/// One runner call of the given kind on one network.
Call run_call(const Setup& setup, const net::Network& network,
              const Shape& shape, Kind kind, std::uint64_t seed,
              runner::SyncKernel kernel = runner::SyncKernel::kEngine) {
  const double n = static_cast<double>(shape.n);
  Call call;
  if (kind == kAsync) {
    runner::AsyncTrialConfig config;
    config.trials = shape.trials_per_call;
    config.seed = seed;
    config.threads = shape.threads;
    config.engine.slots_per_frame = kSlotsPerFrame;
    const runner::AsyncTrialStats stats =
        runner::run_async_trials(network, setup.async, config);
    call.outcome = outcome_of(stats, stats.completion_after_ts);
    // Ideal clocks from time 0: a node has started floor(t / L) + 1 frames
    // when discovery completes at real time t (L = 1).
    for (const double t : stats.completion_after_ts.values()) {
      call.node_slots += n * (std::floor(t) + 1.0) * kSlotsPerFrame;
    }
    return call;
  }
  runner::SyncTrialStats stats;
  if (kind == kMultiRadio) {
    runner::MultiRadioTrialConfig config;
    config.trials = shape.trials_per_call;
    config.seed = seed;
    config.threads = shape.threads;
    config.engine.max_slots = kMaxSlots;
    stats = runner::run_multi_radio_trials(network, setup.multi_radio, config);
  } else {
    runner::SyncTrialConfig config;
    config.trials = shape.trials_per_call;
    config.seed = seed;
    config.threads = shape.threads;
    config.kernel = kernel;
    config.engine.max_slots = kMaxSlots;
    if (kind == kSlotFaulted) config.engine.faults = fault_plan();
    stats = runner::run_sync_trials(network, setup.spec, config);
  }
  call.outcome = outcome_of(stats, stats.completion_slots);
  for (const double slot : stats.completion_slots.values()) {
    call.node_slots += n * (slot + 1.0);
  }
  call.node_slots += n * static_cast<double>(kMaxSlots) *
                     static_cast<double>(stats.trials - stats.completed);
  return call;
}

struct Seeds {
  std::vector<std::uint64_t> networks;  ///< per round
  std::vector<std::uint64_t> calls;     ///< per call, call k = round k / 4
};

Seeds seeds_of(const Options& options, const Shape& shape) {
  // The round networks are a fixed scenario set, as in the E-benches; only
  // the trial streams follow --seed. Drawn per seed, the set's mean degree
  // moved trials_per_s by 8-11 % between seeds, more than run-to-run noise.
  const util::SeedSequence scenarios(kScenarioSeed);
  const util::SeedSequence root(options.seed);
  Seeds seeds;
  for (std::size_t r = 0; r < shape.rounds; ++r) {
    seeds.networks.push_back(scenarios.derive(r));
  }
  for (std::size_t k = 0; k < shape.calls(); ++k) {
    seeds.calls.push_back(root.derive(1000 + k));
  }
  return seeds;
}

/// The timed calls, each under a runner span when tracing. Fills the
/// per-call latency and outcomes.
void run_calls(const Setup& setup, const Shape& shape, const Seeds& seeds,
               SpanRecorder& recorder, std::vector<double>& latency,
               std::vector<Call>& calls) {
  for (std::size_t k = 0; k < shape.calls(); ++k) {
    const Kind kind = static_cast<Kind>(k % kKinds);
    SpanRecorder::Scope span(recorder, kRunnerSpan[kind], static_cast<long>(k));
    calls.push_back(run_call(setup, setup.networks[k / kKinds], shape, kind,
                             seeds.calls[k]));
    latency.push_back(span.elapsed());
  }
}

/// One trial through the engine entry point, as run_*_trials runs trial t.
struct TrialRun {
  bool complete = false;
  double completion = 0.0;
  double recall = 0.0;
  bool faulted = false;
  double node_slots = 0.0;
};

TrialRun run_engine_trial(const Setup& setup, const net::Network& network,
                          const Shape& shape, Kind kind,
                          std::uint64_t engine_seed, bool fixed_cost_only) {
  const double n = static_cast<double>(shape.n);
  TrialRun run;
  if (kind == kAsync) {
    sim::AsyncEngineConfig config;
    config.seed = engine_seed;
    config.slots_per_frame = kSlotsPerFrame;
    if (fixed_cost_only) config.max_frames_per_node = 1;
    const auto r = sim::run_async_engine(network, setup.async, config);
    run.complete = r.complete;
    run.completion = r.completion_time - r.t_s;
    for (const std::uint64_t f : r.frames_started) {
      run.node_slots += static_cast<double>(f) * kSlotsPerFrame;
    }
    return run;
  }
  if (kind == kMultiRadio) {
    sim::MultiRadioEngineConfig config;
    config.seed = engine_seed;
    config.max_slots = fixed_cost_only ? 1 : kMaxSlots;
    const auto r = sim::run_multi_radio_engine(network, setup.multi_radio,
                                               config);
    run.complete = r.complete;
    run.completion = static_cast<double>(r.completion_slot);
    run.node_slots = n * static_cast<double>(r.slots_executed);
    return run;
  }
  sim::SlotEngineConfig config;
  config.seed = engine_seed;
  config.max_slots = fixed_cost_only ? 1 : kMaxSlots;
  if (kind == kSlotFaulted) config.faults = fault_plan();
  const auto r = sim::run_slot_engine(
      network, core::make_policy_factory(setup.spec), config);
  run.complete = r.complete;
  run.completion = static_cast<double>(r.completion_slot);
  run.faulted = r.robustness.enabled;
  run.recall = r.robustness.surviving_recall();
  run.node_slots = n * static_cast<double>(r.slots_executed);
  return run;
}

/// Per-round job latency: the summed wall time of the round's calls.
std::vector<double> round_latency(const std::vector<double>& call_latency) {
  std::vector<double> rounds(call_latency.size() / kKinds, 0.0);
  for (std::size_t k = 0; k < call_latency.size(); ++k) {
    rounds[k / kKinds] += call_latency[k];
  }
  return rounds;
}

/// The traced pass: set-up, the same calls under runner spans, a thread
/// pool probe, fixed-cost probes and the per-trial replay of round 0.
/// Returns the traced calls' wall time.
double traced_pass(const Shape& shape, const Seeds& seeds,
                   SpanRecorder& recorder, WorkloadResult& result) {
  Metrics& m = result.metrics;
  SpanRecorder::Scope root(recorder, "bench.workload");
  std::optional<SpanRecorder::Scope> phase;
  phase.emplace(recorder, "bench.setup");
  const Setup setup = build(shape, seeds.networks, recorder);
  const net::Network& network = setup.networks.front();
  phase.emplace(recorder, "bench.calls");
  std::vector<double> latency;
  std::vector<Call> calls;
  run_calls(setup, shape, seeds, recorder, latency, calls);

  phase.emplace(recorder, "bench.pool_probe");
  std::vector<double> spinup;
  for (std::size_t p = 0; p < shape.probes; ++p) {
    SpanRecorder::Scope span(recorder, "runner.thread_pool");
    {
      util::ThreadPool pool(shape.threads);
      pool.parallel_for(0, [](std::size_t) {});
    }
    spinup.push_back(span.elapsed());
  }
  m.set("runner.pool_spinup_us", 1e6 * median(spinup));

  phase.emplace(recorder, "bench.fixed_probe");
  double fixed_s[kKinds] = {};
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    std::vector<double> fixed;
    const std::string name = std::string(kEngineSpan[kind]) + "_fixed";
    for (std::size_t p = 0; p < shape.probes; ++p) {
      SpanRecorder::Scope span(recorder, name);
      (void)run_engine_trial(setup, network, shape, static_cast<Kind>(kind),
                             util::SeedSequence(seeds.calls[kind]).derive(p),
                             true);
      fixed.push_back(span.elapsed());
    }
    fixed_s[kind] = median(fixed);
    m.set(std::string("sim.") + kKindName[kind] + ".trial_fixed_us",
          1e6 * fixed_s[kind]);
  }

  phase.emplace(recorder, "bench.replay");
  double serial_s = 0.0;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    const util::SeedSequence trial_seeds(seeds.calls[kind]);
    std::vector<double> trial_s, completion, recall;
    double node_slots = 0.0;
    std::size_t completed = 0;
    for (std::size_t t = 0; t < shape.trials_per_call; ++t) {
      SpanRecorder::Scope span(recorder, kEngineSpan[kind],
                               static_cast<long>(t));
      const TrialRun run =
          run_engine_trial(setup, network, shape, static_cast<Kind>(kind),
                           trial_seeds.derive(t), false);
      trial_s.push_back(span.elapsed());
      node_slots += run.node_slots;
      if (run.faulted) recall.push_back(run.recall);
      if (run.complete) {
        ++completed;
        completion.push_back(run.completion);
      }
    }
    const CallOutcome& expected = calls[kind].outcome;
    result.check(completed == expected.completed &&
                     completion == expected.completion &&
                     recall == expected.recall,
                 std::string("replayed ") + kKindName[kind] +
                     " trials differ from the runner's call");
    const std::string prefix = std::string("sim.") + kKindName[kind];
    m.set(prefix + ".trial_us_p50", 1e6 * quantile(trial_s, 0.5));
    m.set(prefix + ".trial_us_p95", 1e6 * quantile(trial_s, 0.95));
    const double busy =
        sum(trial_s) - fixed_s[kind] * static_cast<double>(trial_s.size());
    m.set(prefix + (kind == kAsync ? ".ns_per_node_frame" : ".ns_per_node_slot"),
          1e9 * busy /
              (kind == kAsync ? node_slots / kSlotsPerFrame : node_slots));
    serial_s += sum(trial_s);
  }
  // Round 0's serial engine time against the same round's fanned-out calls.
  m.set("runner.fanout_efficiency",
        serial_s / (static_cast<double>(shape.threads) *
                    round_latency(latency).front()));
  return sum(latency);
}

}  // namespace

WorkloadResult run_engine_mix(const Options& options) {
  const Shape shape = shape_of(options);
  const Seeds seeds = seeds_of(options, shape);
  WorkloadResult result;
  Metrics& m = result.metrics;
  m.set("size.nodes", shape.n);
  m.set("size.trials",
        static_cast<double>(shape.calls() * shape.trials_per_call));
  m.set("size.calls", static_cast<double>(shape.calls()));
  m.set("size.fanout", static_cast<double>(shape.threads));

  SpanRecorder recorder(options.workload);
  double traced_calls_s = 0.0, traced_wall = 0.0;
  if (options.trace) {
    recorder.enable();
    const auto start = Clock::now();
    traced_calls_s = traced_pass(shape, seeds, recorder, result);
    traced_wall = seconds_since(start);
  }

  // Set-up is repeated for its median; the last build serves the calls.
  SpanRecorder off("untraced");
  std::vector<double> setup_s, gen_s, build_s;
  std::optional<Setup> setup;
  for (std::size_t r = 0; r < shape.setup_repeats; ++r) {
    setup.reset();
    const auto start = Clock::now();
    setup.emplace(build(shape, seeds.networks, off));
    setup_s.push_back(seconds_since(start));
    gen_s.push_back(setup->gen_s);
    build_s.push_back(setup->build_s);
  }
  m.set("setup_s", median(setup_s));
  m.set("net.topology_gen_s", median(gen_s));
  m.set("net.network_build_s", median(build_s));
  double arcs = 0.0;
  for (const net::Network& network : setup->networks) {
    arcs += static_cast<double>(network.links().size());
  }
  m.set("net.arcs", arcs);

  std::vector<double> latency;
  std::vector<Call> calls;
  run_calls(*setup, shape, seeds, off, latency, calls);
  const double calls_s = sum(latency);

  std::vector<double> round_node_slots(shape.rounds, 0.0);
  for (std::size_t k = 0; k < calls.size(); ++k) {
    calls[k].outcome.fold(result.digest);
    round_node_slots[k / kKinds] += calls[k].node_slots;
    result.check(calls[k].outcome.completed == shape.trials_per_call,
                 std::string(kKindName[k % kKinds]) + " call " +
                     std::to_string(k) + " left trials incomplete");
  }
  set_job_metrics(
      m, round_latency(latency),
      std::vector<double>(shape.rounds,
                          static_cast<double>(kKinds * shape.trials_per_call)),
      round_node_slots);
  m.set("runner.calls", static_cast<double>(shape.calls()));
  m.set("runner.trials",
        static_cast<double>(shape.calls() * shape.trials_per_call));

  // engine==soa: round 0's slot and slot_faulted calls again on the SoA
  // kernel must give identical stats.
  for (const Kind kind : {kSlot, kSlotFaulted}) {
    const Call soa = run_call(*setup, setup->networks.front(), shape, kind,
                              seeds.calls[kind], runner::SyncKernel::kSoa);
    result.check(soa.outcome == calls[kind].outcome,
                 std::string("engine==soa mismatch on ") + kKindName[kind]);
  }

  if (options.trace) {
    m.set("trace.overhead_pct", 100.0 * (traced_calls_s - calls_s) / calls_s);
    finish_trace(recorder, options, traced_wall, result);
  }
  return result;
}

}  // namespace perfbench
