#include "service/sweep_runner.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>

#include "core/policy_spec.hpp"
#include "service/daemon.hpp"
#include "runner/streaming.hpp"
#include "sim/slot_engine.hpp"
#include "sim/soa_kernel.hpp"
#include "util/check.hpp"
#include "util/ipc.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace m2hew::service {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs the trials in `indices` serially, on `table` when given, else on
/// `objects` — engine seed derive(root, t) for trial t, exactly as the
/// batch runner seeds them — and emits each
/// (t, outcome) through runner::slotted_outcome, as the batch runner builds
/// them. Shared by the worker children and the parent's crash-recovery
/// path, so both produce identical outcomes.
void run_trial_subset(
    const net::Network& network, const SweepSpec& spec,
    const sim::SoaPolicyTable* table, const sim::SyncPolicyFactory& objects,
    const sim::SlotEngineConfig& engine_base,
    const std::vector<std::size_t>& indices,
    const std::function<void(std::size_t, runner::TrialOutcome)>& emit) {
  const util::SeedSequence seeds(spec.seed);
  std::optional<sim::SoaSlotKernel> kernel;
  if (table != nullptr) kernel.emplace(network);
  for (const std::size_t t : indices) {
    sim::SlotEngineConfig engine = engine_base;
    engine.seed = seeds.derive(t);
    emit(t, kernel.has_value()
                ? runner::slotted_outcome(kernel->run(*table, engine))
                : runner::slotted_outcome(
                      sim::run_slot_engine(network, objects, engine)));
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
    const sim::SoaPolicyTable* table, const sim::SyncPolicyFactory& objects,
    const sim::SlotEngineConfig& engine_base, std::size_t workers,
    runner::SyncTrialStats& out, std::string* error) {
  const auto start = Clock::now();
  std::vector<std::optional<runner::TrialOutcome>> slots(spec.trials);

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
      run_trial_subset(network, spec, table, objects, engine_base, mine,
                       [&](std::size_t t, const runner::TrialOutcome& outcome) {
                         if (!pipe_ok) return;
                         const std::string line =
                             runner::encode_outcome(t, outcome) + "\n";
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
        if (runner::place_outcome(line, slots)) return;
        if (runner::decode_end_marker(line).has_value()) {
          ++end_markers;
          return;
        }
        ++malformed;
      },
      [] { return shutdown_requested(); });
  std::vector<std::size_t> missing;
  for (std::size_t t = 0; t < slots.size(); ++t) {
    if (!slots[t].has_value()) missing.push_back(t);
  }
  if (shutdown_requested() && !missing.empty()) {
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

  if (!missing.empty()) {
    M2HEW_LOG_WARN(
        "sweep: %zu of %zu worker(s) died mid-shard; re-running %zu missing "
        "trial(s) in-process",
        workers - end_markers, workers, missing.size());
    run_trial_subset(network, spec, table, objects, engine_base, missing,
                     [&](std::size_t t, runner::TrialOutcome outcome) {
                       slots[t] = std::move(outcome);
                     });
  }
  std::vector<runner::TrialOutcome> outcomes;
  outcomes.reserve(slots.size());
  for (std::optional<runner::TrialOutcome>& slot : slots) {
    M2HEW_CHECK_MSG(slot.has_value(), "sharded point left a trial unrun");
    outcomes.push_back(std::move(*slot));
  }
  out = runner::reduce_sync_trials(outcomes, seconds_since(start), workers);
  return true;
}

}  // namespace

bool run_sweep(const SweepSpec& spec, std::size_t workers,
               SweepResult& result, std::string* error) {
  result = SweepResult{};
  result.workers = workers == 0 ? 1 : workers;


  for (const double value : spec.sweep_values) {
    if (shutdown_requested()) {
      // Between-point interruption check (the batch path below is not
      // interruptible inside a point; the sharded path also checks in
      // its worker drain).
      *error = "interrupted by shutdown";
      return false;
    }
    // Mobile specs run every engine on the provider's union network; the
    // per-epoch link sets ride along inside the engine config. The daemon
    // reports completion/robustness only (encounter metrics are a batch
    // front-end feature — the wire format stays unchanged).
    runner::SweepPoint point;
    if (!runner::build_sweep_point(spec, value, point, error)) return false;
    const net::Network& network = point.network();

    runner::SyncTrialStats stats;
    // Never more processes than trials: surplus shards would be empty.
    const std::size_t point_workers =
        std::min(result.workers, std::max<std::size_t>(spec.trials, 1));
    if (point_workers <= 1) {
      runner::SyncTrialConfig trial;
      trial.trials = spec.trials;
      trial.seed = spec.seed;
      trial.threads = 1;  // the service's unit of fan-out is the process
      trial.engine = point.engine;
      stats = runner::run_spec_trials(network, spec, trial,
                                      spec.scenario.universe);
    } else {
      const runner::SpecPolicy policy =
          runner::spec_policy(spec, spec.scenario.universe);
      sim::SoaPolicyTable table;
      if (policy.table) {
        table = core::build_soa_policy_table(network, *policy.table);
      }
      if (!run_point_sharded(network, spec, policy.table ? &table : nullptr,
                             policy.objects, point.engine, point_workers,
                             stats, error)) {
        return false;
      }
    }
    result.points.push_back({value, std::move(stats)});
  }
  return true;
}

}  // namespace m2hew::service
