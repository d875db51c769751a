#include "service/sweep_runner.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "core/adaptive.hpp"
#include "core/algorithms.hpp"
#include "core/competitors.hpp"
#include "core/duty_cycle.hpp"
#include "core/policy_spec.hpp"
#include "core/trust.hpp"
#include "net/topology_provider.hpp"
#include "service/daemon.hpp"
#include "runner/scenario_kv.hpp"
#include "runner/streaming.hpp"
#include "sim/slot_engine.hpp"
#include "sim/soa_kernel.hpp"
#include "util/ipc.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace m2hew::service {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] bool is_spec_algorithm(std::string_view algorithm) {
  return algorithm == "alg1" || algorithm == "alg2" || algorithm == "alg2x" ||
         algorithm == "alg3" || algorithm == "consistent-hop";
}

[[nodiscard]] core::SyncPolicySpec make_policy_spec(const SweepSpec& spec) {
  if (spec.algorithm == "alg1") {
    return core::SyncPolicySpec::algorithm1(spec.delta_est);
  }
  if (spec.algorithm == "alg2") return core::SyncPolicySpec::algorithm2();
  if (spec.algorithm == "alg2x") {
    return core::SyncPolicySpec::algorithm2(core::EstimateSchedule::kDouble);
  }
  if (spec.algorithm == "consistent-hop") {
    return core::SyncPolicySpec::consistent_hop();
  }
  return core::SyncPolicySpec::algorithm3(spec.delta_est);
}

[[nodiscard]] sim::SyncPolicyFactory make_factory(const SweepSpec& spec) {
  if (spec.algorithm == "adaptive") return core::make_adaptive();
  if (spec.algorithm == "mcdis") return core::make_mcdis();
  if (spec.algorithm == "rendezvous") return core::make_blind_rendezvous();
  // parse_sweep_spec admits exactly one other non-spec algorithm.
  return core::make_universal_baseline(spec.scenario.universe, 0.5);
}

/// The policy a factory-path sweep spec runs: the spec's algorithm wrapped
/// in its duty cycle and trust gate. Duty cycling and trust wrap policy
/// objects, so they ride the factory path only; parse_sweep_spec rejects
/// SoA specs asking for either. Both wrappers are the identity when off,
/// so this costs nothing for plain specs.
[[nodiscard]] sim::SyncPolicyFactory sweep_factory(
    const SweepSpec& spec, const core::SyncPolicySpec* pspec) {
  const bool duty = spec.mobility.enabled;
  return core::with_trust(
      core::with_duty_cycle(pspec != nullptr
                                ? core::make_policy_factory(*pspec)
                                : make_factory(spec),
                            duty ? spec.mobility.duty_on : 1,
                            duty ? spec.mobility.duty_period : 1),
      spec.trust);
}

/// Runs the trials in `indices` serially — engine seed derive(root, t) for
/// trial t, exactly as the batch runner seeds them — and emits one wire
/// record each. Shared by the worker children and the parent's
/// crash-recovery path, so both produce identical records.
void run_trial_subset(
    const net::Network& network, const SweepSpec& spec,
    const core::SyncPolicySpec* pspec, const sim::SoaPolicyTable* table,
    const sim::SlotEngineConfig& engine_base,
    const std::vector<std::size_t>& indices,
    const std::function<void(const runner::TrialOutcomeRecord&)>& emit) {
  const util::SeedSequence seeds(spec.seed);
  std::optional<sim::SoaSlotKernel> kernel;
  sim::SyncPolicyFactory factory;
  if (table != nullptr) {
    kernel.emplace(network);
  } else {
    factory = sweep_factory(spec, pspec);
  }
  for (const std::size_t t : indices) {
    sim::SlotEngineConfig engine = engine_base;
    engine.seed = seeds.derive(t);
    const auto record = [t](const auto& result) {
      return runner::make_outcome_record(t, result.complete,
                                         result.completion_slot,
                                         result.robustness);
    };
    emit(kernel.has_value()
             ? record(kernel->run(*table, engine))
             : record(sim::run_slot_engine(network, factory, engine)));
  }
}

/// Deterministic crash hook for the worker-kill recovery test. When
/// M2HEW_TEST_WORKER_KILL is "<shard>:<marker-path>", the matching shard
/// SIGKILLs itself halfway through its records — once: the marker file is
/// created O_EXCL first, so later sweep points (and re-runs) survive.
void maybe_kill_for_test(std::size_t shard, std::size_t emitted,
                         std::size_t total) {
  const char* env = std::getenv("M2HEW_TEST_WORKER_KILL");
  if (env == nullptr || *env == '\0') return;
  const std::string_view hook(env);
  const auto colon = hook.find(':');
  if (colon == std::string_view::npos) return;
  char* end = nullptr;
  const std::string shard_text(hook.substr(0, colon));
  const unsigned long target = std::strtoul(shard_text.c_str(), &end, 10);
  if (end == shard_text.c_str() || *end != '\0') return;
  if (shard != target || emitted != (total + 1) / 2) return;
  const std::string marker(hook.substr(colon + 1));
  const int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return;  // marker exists: this hook already fired
  ::close(fd);
  ::raise(SIGKILL);
}

[[nodiscard]] bool run_point_sharded(
    const net::Network& network, const SweepSpec& spec,
    const core::SyncPolicySpec* pspec, const sim::SoaPolicyTable* table,
    const sim::SlotEngineConfig& engine_base, std::size_t workers,
    runner::SyncTrialStats& out, std::string* error) {
  const auto start = Clock::now();
  runner::StreamingSyncReducer reducer(spec.trials);

  std::vector<util::WorkerProcess> procs;
  procs.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    std::vector<std::size_t> mine;
    for (std::size_t t = w; t < spec.trials; t += workers) mine.push_back(t);
    procs.push_back(util::spawn_worker([&, w, mine](int write_fd) {
      // write_all loops over partial writes/EINTR; false means the
      // parent's read end is gone (EPIPE — spawn_worker ignores
      // SIGPIPE). Exiting nonzero without the end marker routes those
      // trials through the parent's missing-trials recovery.
      bool pipe_ok = true;
      std::size_t emitted = 0;
      run_trial_subset(network, spec, pspec, table, engine_base, mine,
                       [&](const runner::TrialOutcomeRecord& record) {
                         if (!pipe_ok) return;
                         const std::string line =
                             runner::encode_outcome_record(record) + "\n";
                         pipe_ok = util::write_all(write_fd, line);
                         if (!pipe_ok) return;
                         ++emitted;
                         maybe_kill_for_test(w, emitted, mine.size());
                       });
      if (!pipe_ok) return 1;
      const std::string end_line =
          runner::encode_end_marker(w, emitted) + "\n";
      return util::write_all(write_fd, end_line) ? 0 : 1;
    }));
  }

  std::size_t end_markers = 0;
  std::size_t malformed = 0;
  util::drain_workers(
      procs,
      [&](std::size_t, std::string_view line) {
        if (const auto record = runner::decode_outcome_record(line)) {
          reducer.offer(*record);
          return;
        }
        if (runner::decode_end_marker(line).has_value()) {
          ++end_markers;
          return;
        }
        ++malformed;
      },
      [] { return shutdown_requested(); });
  if (shutdown_requested() && !reducer.all_received()) {
    // Shutdown landed mid-point: the workers were SIGTERMed and drained,
    // but the point is incomplete. Do NOT fall through to the
    // missing-trials recovery — that would re-run the remainder of an
    // arbitrarily long sweep during a termination request.
    *error = "interrupted by shutdown";
    return false;
  }
  if (malformed > 0) {
    *error = "worker protocol violation: " + std::to_string(malformed) +
             " malformed line(s)";
    return false;
  }

  if (!reducer.all_received()) {
    const std::vector<std::size_t> missing = reducer.missing_trials();
    M2HEW_LOG_WARN(
        "sweep: %zu of %zu worker(s) died mid-shard; re-running %zu missing "
        "trial(s) in-process",
        workers - end_markers, workers, missing.size());
    run_trial_subset(network, spec, pspec, table, engine_base, missing,
                     [&](const runner::TrialOutcomeRecord& record) {
                       reducer.offer(record);
                     });
  }
  out = reducer.finish(seconds_since(start), workers);
  return true;
}

/// Rejects configurations build_scenario would CHECK-abort on, with a
/// message instead (the daemon survives; the job fails).
[[nodiscard]] bool validate_buildable(const runner::ScenarioConfig& scenario,
                                      std::string* error) {
  if (scenario.channels == runner::ChannelKind::kChainOverlap &&
      scenario.topology != runner::TopologyKind::kLine) {
    *error = "channels = chain requires topology = line";
    return false;
  }
  if (scenario.topology == runner::TopologyKind::kGrid) {
    const net::NodeId rows = scenario.grid_rows != 0 ? scenario.grid_rows : 2;
    if (rows == 0 || scenario.n % rows != 0) {
      *error = "grid topology: n must be divisible by grid-rows";
      return false;
    }
  }
  if (scenario.channels == runner::ChannelKind::kPrimaryUsers &&
      scenario.topology != runner::TopologyKind::kUnitDisk) {
    *error = "channels = primary-users requires topology = unit-disk";
    return false;
  }
  return true;
}

}  // namespace

bool run_sweep(const SweepSpec& spec, std::size_t workers,
               SweepResult& result, std::string* error) {
  result = SweepResult{};
  result.workers = workers == 0 ? 1 : workers;

  const bool spec_algorithm = is_spec_algorithm(spec.algorithm);
  core::SyncPolicySpec pspec;
  if (spec_algorithm) pspec = make_policy_spec(spec);

  for (const double value : spec.sweep_values) {
    if (shutdown_requested()) {
      // Between-point interruption check (the batch path below is not
      // interruptible inside a point; the sharded path also checks in
      // its worker drain).
      *error = "interrupted by shutdown";
      return false;
    }
    runner::ScenarioConfig scenario = spec.scenario;
    if (!spec.sweep_key.empty()) {
      if (!runner::apply_scenario_setting(scenario, spec.sweep_key,
                                          format_sweep_value(value), error)) {
        return false;
      }
    }
    if (!validate_buildable(scenario, error)) return false;

    // Mobile specs run every engine on the provider's union network; the
    // per-epoch link sets ride along inside the engine config. The daemon
    // reports completion/robustness only (encounter metrics are a batch
    // front-end feature — the wire format stays unchanged).
    std::unique_ptr<net::EpochTopologyProvider> provider;
    std::optional<net::Network> static_network;
    if (spec.mobility.enabled) {
      provider =
          runner::build_mobility_provider(scenario, spec.mobility, spec.seed);
    } else {
      static_network.emplace(runner::build_scenario(scenario, spec.seed));
    }
    const net::Network& network =
        provider != nullptr ? provider->union_network() : *static_network;
    sim::SlotEngineConfig engine;
    engine.max_slots = spec.max_slots;
    engine.faults = spec.faults;
    if (provider != nullptr) {
      engine.topology = provider.get();
      engine.epoch_length = spec.mobility.epoch_slots;
    }

    runner::SyncTrialStats stats;
    // Never more processes than trials: surplus shards would be empty.
    const std::size_t point_workers =
        std::min(result.workers, std::max<std::size_t>(spec.trials, 1));
    if (point_workers <= 1) {
      runner::SyncTrialConfig trial;
      trial.trials = spec.trials;
      trial.seed = spec.seed;
      trial.threads = 1;  // the service's unit of fan-out is the process
      trial.engine = engine;
      trial.kernel = spec.kernel;
      // Only the spec overload can run the SoA kernel (parse_sweep_spec
      // admits kernel = soa for wrapper-free spec algorithms only); every
      // engine-kernel spec runs the one sweep factory.
      stats = spec.kernel == runner::SyncKernel::kSoa
                  ? runner::run_sync_trials(network, pspec, trial)
                  : runner::run_sync_trials(
                        network,
                        sweep_factory(spec, spec_algorithm ? &pspec : nullptr),
                        trial);
    } else {
      const bool soa = spec.kernel == runner::SyncKernel::kSoa;
      sim::SoaPolicyTable table;
      if (soa) table = core::build_soa_policy_table(network, pspec);
      if (!run_point_sharded(network, spec,
                             spec_algorithm ? &pspec : nullptr,
                             soa ? &table : nullptr, engine, point_workers,
                             stats, error)) {
        return false;
      }
    }
    result.points.push_back({value, std::move(stats)});
  }
  return true;
}

}  // namespace m2hew::service
