// soa-large and soa-faulted: the SoA slot kernel at scale.
//
// Bucketed unit-disk (side √N, radius 1.382, mean degree ≈ 6), homogeneous
// |U| = |A(u)| = 4, Algorithm 3 with Δ_est = 32, every trial run to
// completion. soa-large is N = 10⁵ and clean; soa-faulted is N = 10⁴ with
// churn (crash 0.3, reset on recovery) and Gilbert–Elliott burst loss, so
// every trial also builds the fault layer's per-trial state.
//
// Untraced pass: one run_sync_trials(kernel=soa, threads=1, trials=1) call
// per trial, each a "job". Traced pass: the same set-up under spans, a
// 1-slot fixed-cost probe, then every trial replayed through
// SoaSlotKernel::run with the runner's seed for it, which also yields the
// kernel's work counts and cross-checks the runner's outcomes.
#include <cmath>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/policy_spec.hpp"
#include "net/channel_assign.hpp"
#include "net/topology_gen.hpp"
#include "runner/trials.hpp"
#include "sim/soa_kernel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace m2hew;

struct Shape {
  net::NodeId n = 0;
  std::size_t trials = 0;
  std::size_t setup_repeats = 0;
  std::size_t fixed_probes = 0;
  std::uint64_t max_slots = 0;
  bool faulted = false;
};

// Host seconds per trial on a 4-core x86 box (4.5 s at N=10⁵ clean, 1.9 s
// at N=10⁴ faulted); --seconds becomes a fixed trial count through these,
// so the simulated work, and with it the digest, depends only on the
// workload, seed, --seconds and scale.
constexpr double kLargeTrialSeconds = 4.5;
constexpr double kFaultedTrialSeconds = 1.9;

Shape shape_of(const Options& options, bool faulted) {
  Shape shape;
  shape.faulted = faulted;
  shape.max_slots = 200'000;
  if (options.scale == Scale::kTiny) {
    shape.n = faulted ? 600 : 2'000;
    shape.trials = 2;
    shape.setup_repeats = 2;
    shape.fixed_probes = 2;
    return shape;
  }
  shape.n = faulted ? 10'000 : 100'000;
  const double per_trial = faulted ? kFaultedTrialSeconds : kLargeTrialSeconds;
  shape.trials = static_cast<std::size_t>(
      std::max(2.0, std::round(options.seconds / per_trial)));
  shape.setup_repeats = faulted ? 15 : 5;
  shape.fixed_probes = 3;
  return shape;
}

core::SyncPolicySpec spec() { return core::SyncPolicySpec::algorithm3(32); }

sim::SlotEngineConfig engine_config(const Shape& shape) {
  sim::SlotEngineConfig config;
  config.max_slots = shape.max_slots;
  config.stop_when_complete = true;
  if (shape.faulted) {
    config.faults.churn = {0.3, 100, 1500, 100, 600, true};
    config.faults.burst_loss = {true, 0.02, 0.1, 0.0, 0.8};
  }
  return config;
}

struct Built {
  std::unique_ptr<net::Network> network;
  std::optional<sim::SoaPolicyTable> table;
  std::unique_ptr<sim::SoaSlotKernel> kernel;
  double gen_s = 0.0, build_s = 0.0, table_s = 0.0, flatten_s = 0.0;
  [[nodiscard]] double total() const {
    return gen_s + build_s + table_s + flatten_s;
  }
};

Built build(const Shape& shape, std::uint64_t net_seed,
            SpanRecorder& recorder) {
  Built built;
  net::Topology topology;
  {
    SpanRecorder::Scope span(recorder, "net.topology_gen");
    util::Rng rng(net_seed);
    topology = net::make_unit_disk_bucketed(
                   shape.n, std::sqrt(static_cast<double>(shape.n)), 1.382,
                   rng)
                   .topology;
    built.gen_s = span.elapsed();
  }
  {
    SpanRecorder::Scope span(recorder, "net.network_build");
    built.network = std::make_unique<net::Network>(
        std::move(topology), net::homogeneous_assignment(shape.n, 4, 4));
    built.build_s = span.elapsed();
  }
  {
    SpanRecorder::Scope span(recorder, "core.policy_table");
    built.table = core::build_soa_policy_table(*built.network, spec());
    built.table_s = span.elapsed();
  }
  {
    SpanRecorder::Scope span(recorder, "sim.soa.flatten");
    built.kernel = std::make_unique<sim::SoaSlotKernel>(*built.network);
    built.flatten_s = span.elapsed();
  }
  return built;
}

/// The pinned per-trial outcome: completion flag and slot, covered links
/// (all of them when complete; incomplete trials are failures) and the
/// fault layer's robustness figures.
struct Outcome {
  bool complete = false;
  std::uint64_t completion_slot = 0;
  std::uint64_t covered = 0;
  double recall = 0.0;
  double ghosts = 0.0;
  std::uint64_t recovered = 0;
  std::uint64_t rediscovered = 0;

  void fold(Digest& digest) const {
    digest.add(static_cast<std::uint64_t>(complete));
    digest.add(completion_slot);
    digest.add(covered);
    digest.add(recall);
    digest.add(ghosts);
    digest.add(recovered);
    digest.add(rediscovered);
  }
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const runner::SyncTrialStats& stats,
                   std::uint64_t total_links) {
  Outcome out;
  out.complete = stats.completed == 1;
  if (out.complete) {
    out.completion_slot =
        static_cast<std::uint64_t>(stats.completion_slots.values()[0]);
    out.covered = total_links;
  }
  const runner::RobustnessStats& robust = stats.robustness;
  if (robust.enabled()) {
    out.recall = robust.surviving_recall.values()[0];
    out.ghosts = robust.ghost_entries.values()[0];
    out.recovered = robust.recovered_links;
    out.rediscovered = robust.rediscovered_links;
  }
  return out;
}

Outcome outcome_of(const sim::SoaSlotKernelResult& result) {
  Outcome out;
  out.complete = result.complete;
  if (out.complete) {
    out.completion_slot = result.completion_slot;
    out.covered = result.covered_links;
  }
  if (result.robustness.enabled) {
    out.recall = result.robustness.surviving_recall();
    out.ghosts = static_cast<double>(result.robustness.ghost_entries);
    out.recovered = result.robustness.recovered_links;
    out.rediscovered = result.robustness.rediscovered_links;
  }
  return out;
}

/// Slots a trial executed, from its outcome (stop_when_complete).
std::uint64_t slots_of(const Outcome& outcome, const Shape& shape) {
  return outcome.complete ? outcome.completion_slot + 1 : shape.max_slots;
}

struct Seeds {
  std::uint64_t network = 0;
  std::vector<std::uint64_t> calls;  ///< run_sync_trials root seed per trial
};

Seeds seeds_of(const Options& options, const Shape& shape) {
  const util::SeedSequence root(options.seed);
  Seeds seeds;
  seeds.network = root.derive(1);
  for (std::size_t t = 0; t < shape.trials; ++t) {
    seeds.calls.push_back(root.derive(100 + t));
  }
  return seeds;
}

/// Set-up (repeated, median) plus one runner call per trial: the
/// end-to-end measurement. Returns the trial-phase wall time.
double untraced_pass(const Shape& shape, const Seeds& seeds,
                     WorkloadResult& result, std::vector<Outcome>& outcomes) {
  SpanRecorder off("untraced");
  std::vector<double> setup, gen, build_net, table, flatten;
  std::unique_ptr<net::Network> network;
  for (std::size_t r = 0; r < shape.setup_repeats; ++r) {
    network.reset();
    Built built = build(shape, seeds.network, off);
    setup.push_back(built.total());
    gen.push_back(built.gen_s);
    build_net.push_back(built.build_s);
    table.push_back(built.table_s);
    flatten.push_back(built.flatten_s);
    built.kernel.reset();
    network = std::move(built.network);
  }
  Metrics& m = result.metrics;
  m.set("setup_s", median(setup));
  m.set("net.topology_gen_s", median(gen));
  m.set("net.network_build_s", median(build_net));
  m.set("core.policy_table_s", median(table));
  m.set("sim.soa.flatten_s", median(flatten));
  const std::uint64_t total_links = network->links().size();
  m.set("net.arcs", static_cast<double>(total_links));

  runner::SyncTrialConfig config;
  config.trials = 1;
  config.threads = 1;
  config.kernel = runner::SyncKernel::kSoa;
  config.engine = engine_config(shape);
  std::vector<double> latency, node_slots;
  for (std::size_t t = 0; t < shape.trials; ++t) {
    config.seed = seeds.calls[t];
    const auto start = Clock::now();
    const runner::SyncTrialStats stats =
        runner::run_sync_trials(*network, spec(), config);
    latency.push_back(seconds_since(start));
    const Outcome outcome = outcome_of(stats, total_links);
    result.check(outcome.complete,
                 "trial " + std::to_string(t) + " did not complete");
    node_slots.push_back(static_cast<double>(shape.n) *
                         static_cast<double>(slots_of(outcome, shape)));
    outcomes.push_back(outcome);
  }
  set_job_metrics(m, latency, std::vector<double>(shape.trials, 1.0),
                  node_slots);
  m.set("runner.calls", static_cast<double>(shape.trials));
  m.set("runner.trials", static_cast<double>(shape.trials));
  return sum(latency);
}

/// Traced pass: set-up spans, fixed-cost probes, then every trial replayed
/// through the kernel. Returns the replayed outcomes and the replay time.
std::vector<Outcome> traced_pass(const Shape& shape, const Seeds& seeds,
                                 SpanRecorder& recorder,
                                 WorkloadResult& result, double& replay_s) {
  Metrics& m = result.metrics;
  SpanRecorder::Scope root(recorder, "bench.workload");
  std::optional<SpanRecorder::Scope> setup_span;
  setup_span.emplace(recorder, "bench.setup");
  Built built = build(shape, seeds.network, recorder);
  setup_span.reset();
  const net::Network& network = *built.network;
  m.set("net.arcs", static_cast<double>(network.links().size()));

  sim::SlotEngineConfig config = engine_config(shape);
  std::vector<double> fixed;
  double rss_delta = 0.0;
  {
    SpanRecorder::Scope probes(recorder, "bench.fixed_probe");
    sim::SlotEngineConfig probe = config;
    probe.max_slots = 1;
    for (std::size_t p = 0; p < shape.fixed_probes; ++p) {
      probe.seed = util::SeedSequence(seeds.calls[p % shape.trials]).derive(0);
      const double rss_before = peak_rss_mb();
      SpanRecorder::Scope span(recorder, "sim.soa.run_fixed");
      const sim::SoaSlotKernelResult r = built.kernel->run(*built.table, probe);
      fixed.push_back(span.elapsed());
      if (p == 0) rss_delta = peak_rss_mb() - rss_before;
      result.check(r.slots_executed == 1, "fixed-cost probe ran past 1 slot");
    }
  }

  std::vector<Outcome> outcomes;
  double node_slots = 0.0;
  double receptions = 0.0, covered = 0.0, tx = 0.0, listen = 0.0, scans = 0.0;
  replay_s = 0.0;
  {
    SpanRecorder::Scope replay(recorder, "bench.replay");
    for (std::size_t t = 0; t < shape.trials; ++t) {
      config.seed = util::SeedSequence(seeds.calls[t]).derive(0);
      SpanRecorder::Scope span(recorder, "sim.soa.run", static_cast<long>(t));
      const sim::SoaSlotKernelResult r =
          built.kernel->run(*built.table, config);
      replay_s += span.elapsed();
      outcomes.push_back(outcome_of(r));
      result.check(!r.complete || r.slots_executed == r.completion_slot + 1,
                   "trial " + std::to_string(t) +
                       " ran past its completion slot");
      node_slots += static_cast<double>(shape.n) *
                    static_cast<double>(r.slots_executed);
      receptions += static_cast<double>(r.receptions);
      covered += static_cast<double>(r.covered_links);
      for (net::NodeId u = 0; u < shape.n; ++u) {
        tx += static_cast<double>(r.activity[u].transmit);
        listen += static_cast<double>(r.activity[u].receive);
        scans += static_cast<double>(r.activity[u].receive) *
                 static_cast<double>(network.in_links(u).size());
      }
    }
  }
  const double fixed_s = median(fixed);
  m.set("sim.soa.trial_fixed_s", fixed_s);
  m.set("sim.soa.rss_delta_mb", rss_delta);
  m.set("sim.soa.ns_per_node_slot",
        1e9 * (replay_s - fixed_s * static_cast<double>(shape.trials)) /
            node_slots);
  m.set("sim.soa.receptions", receptions);
  m.set("sim.soa.covered_links", covered);
  m.set("sim.soa.tx_slots", tx);
  m.set("sim.soa.listen_slots", listen);
  m.set("sim.soa.useful_rx_ratio",
        receptions > 0.0 ? covered / receptions : 0.0);
  m.set("sim.soa.arc_scans_computed", scans);
  return outcomes;
}

}  // namespace

WorkloadResult run_soa(const Options& options, bool faulted) {
  const Shape shape = shape_of(options, faulted);
  const Seeds seeds = seeds_of(options, shape);
  WorkloadResult result;
  Metrics& m = result.metrics;
  m.set("size.nodes", shape.n);
  m.set("size.trials", static_cast<double>(shape.trials));
  m.set("size.calls", static_cast<double>(shape.trials));
  m.set("size.fanout", 1.0);

  // With --trace 1 the traced pass runs first, so sim.soa.rss_delta_mb
  // sees the process's first kernel run; the untraced pass that follows
  // supplies the runner outcomes the replay is checked against and the
  // base of the tracing overhead.
  SpanRecorder recorder(options.workload);
  std::vector<Outcome> replayed;
  double replay_s = 0.0, traced_wall = 0.0;
  if (options.trace) {
    recorder.enable();
    const auto start = Clock::now();
    replayed = traced_pass(shape, seeds, recorder, result, replay_s);
    traced_wall = seconds_since(start);
  }
  std::vector<Outcome> outcomes;
  const double phase = untraced_pass(shape, seeds, result, outcomes);
  for (const Outcome& outcome : outcomes) outcome.fold(result.digest);
  if (options.trace) {
    for (std::size_t t = 0; t < shape.trials; ++t) {
      result.check(replayed[t] == outcomes[t],
                   "replayed trial " + std::to_string(t) +
                       " differs from the runner's outcome");
    }
    m.set("trace.overhead_pct", 100.0 * (replay_s - phase) / phase);
    finish_trace(recorder, options, traced_wall, result);
  }
  return result;
}

}  // namespace perfbench
