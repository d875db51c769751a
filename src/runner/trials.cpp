#include "runner/trials.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

#include "sim/soa_kernel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace m2hew::runner {
namespace {

std::atomic<std::size_t> g_default_threads{0};  // 0 = not set yet

// Process-wide throughput totals (see log_trial_run); relaxed atomics are
// enough because the numbers are reporting-only and never gate control
// flow.
std::atomic<std::size_t> g_total_runs{0};
std::atomic<std::size_t> g_total_trials{0};
std::atomic<double> g_total_busy_seconds{0.0};

// Per-run log for the bench JSON artifacts; run_*_trials may be invoked
// from several threads, so the vector is mutex-guarded.
std::mutex g_run_log_mutex;
std::vector<TrialRunRecord>& run_log() {
  static std::vector<TrialRunRecord> log;
  return log;
}

/// Builds the log entry shared by both runners from the aggregate stats.
[[nodiscard]] TrialRunRecord make_run_record(const TrialStatsCommon& stats,
                                             bool async,
                                             const util::Samples& completion) {
  TrialRunRecord record;
  record.async = async;
  record.trials = stats.trials;
  record.completed = stats.completed;
  if (stats.completed > 0) {
    const util::Summary summary = completion.summarize();
    record.mean_completion = summary.mean;
    record.p90_completion = summary.p90;
  }
  record.elapsed_seconds = stats.elapsed_seconds;
  record.threads_used = stats.threads_used;
  const RobustnessStats& robust = stats.robustness;
  if (robust.enabled()) {
    record.fault_trials = robust.fault_trials;
    record.mean_surviving_recall = robust.surviving_recall.summarize().mean;
    record.mean_ghost_entries = robust.ghost_entries.summarize().mean;
    if (robust.rediscovery_times.count() > 0) {
      record.mean_rediscovery = robust.rediscovery_times.summarize().mean;
    }
    record.recovered_links = robust.recovered_links;
    record.rediscovered_links = robust.rediscovered_links;
    if (robust.adversarial()) {
      record.adversary_trials = robust.adversary_trials;
      record.mean_precision_under_attack =
          robust.precision_under_attack.summarize().mean;
      if (robust.isolation_times.count() > 0) {
        record.mean_isolation = robust.isolation_times.summarize().mean;
      }
      record.fake_entries = robust.fake_entries;
      record.isolated_fakes = robust.isolated_fakes;
      record.honest_isolated = robust.honest_isolated;
    }
  }
  const EncounterStats& enc = stats.encounters;
  if (enc.enabled()) {
    record.encounter_trials = enc.trials;
    record.contacts = enc.contacts;
    record.detected_contacts = enc.detected;
    if (enc.detection_latency.count() > 0) {
      const util::Summary latency = enc.detection_latency.summarize();
      record.mean_detection_latency = latency.mean;
      record.p90_detection_latency = latency.p90;
      record.mean_latency_fraction =
          enc.latency_over_duration.summarize().mean;
    }
    if (enc.missed_fraction.count() > 0) {
      record.mean_missed_fraction = enc.missed_fraction.summarize().mean;
    }
    if (enc.energy_per_detected.count() > 0) {
      record.mean_energy_per_detected =
          enc.energy_per_detected.summarize().mean;
    }
  }
  return record;
}

using Clock = std::chrono::steady_clock;

/// Effective worker count: resolve the 0 default, never more workers than
/// trials, never fewer than one.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested,
                                          std::size_t trials) {
  std::size_t threads =
      requested == 0 ? default_trial_threads() : requested;
  threads = std::min(threads, std::max<std::size_t>(trials, 1));
  return std::max<std::size_t>(threads, 1);
}

/// Runs body(0..count-1) either inline (threads == 1) or on a pool.
/// Bodies write only to their own index's slot, so any schedule yields
/// the same buffer contents.
template <typename Body>
void dispatch_trials(std::size_t count, std::size_t threads,
                     const Body& body) {
  if (threads <= 1) {
    for (std::size_t t = 0; t < count; ++t) body(t);
    return;
  }
  util::ThreadPool pool(threads);
  pool.parallel_for(count, body);
}

}  // namespace

void set_default_trial_threads(std::size_t threads) noexcept {
  g_default_threads.store(threads == 0 ? util::ThreadPool::default_threads()
                                       : threads,
                          std::memory_order_relaxed);
}

std::size_t default_trial_threads() noexcept {
  const std::size_t set = g_default_threads.load(std::memory_order_relaxed);
  return set == 0 ? util::ThreadPool::default_threads() : set;
}

TrialThroughput trial_throughput_totals() noexcept {
  TrialThroughput totals;
  totals.runs = g_total_runs.load(std::memory_order_relaxed);
  totals.trials = g_total_trials.load(std::memory_order_relaxed);
  totals.busy_seconds = g_total_busy_seconds.load(std::memory_order_relaxed);
  return totals;
}

std::vector<TrialRunRecord> trial_run_log() {
  const std::lock_guard<std::mutex> lock(g_run_log_mutex);
  return run_log();
}

void fold_robustness(RobustnessStats& aggregate,
                     const sim::RobustnessReport& report) {
  if (!report.enabled) return;
  ++aggregate.fault_trials;
  aggregate.surviving_recall.add(report.surviving_recall());
  aggregate.ghost_entries.add(static_cast<double>(report.ghost_entries));
  if (report.rediscovered_links > 0) {
    aggregate.rediscovery_times.add(report.mean_rediscovery);
  }
  aggregate.recovered_links += report.recovered_links;
  aggregate.rediscovered_links += report.rediscovered_links;
  if (report.adversary) {
    ++aggregate.adversary_trials;
    aggregate.precision_under_attack.add(report.precision_under_attack());
    if (report.isolated_fakes > 0) {
      aggregate.isolation_times.add(report.mean_isolation);
    }
    aggregate.fake_entries += report.fake_entries;
    aggregate.isolated_fakes += report.isolated_fakes;
    aggregate.honest_isolated += report.honest_isolated;
  }
}

void fold_encounters(EncounterStats& aggregate,
                     const sim::EncounterReport& report,
                     double trial_energy) {
  ++aggregate.trials;
  aggregate.contacts += report.contacts;
  aggregate.detected += report.detected;
  for (const double v : report.detection_latency) {
    aggregate.detection_latency.add(v);
  }
  for (const double v : report.latency_over_duration) {
    aggregate.latency_over_duration.add(v);
  }
  if (report.contacts > 0) {
    aggregate.missed_fraction.add(
        static_cast<double>(report.contacts - report.detected) /
        static_cast<double>(report.contacts));
  }
  if (report.detected > 0) {
    aggregate.energy_per_detected.add(trial_energy /
                                      static_cast<double>(report.detected));
  }
}

TrialRunRecord make_sync_run_record(const SyncTrialStats& stats) {
  return make_run_record(stats, /*async=*/false, stats.completion_slots);
}

void log_trial_run(const TrialRunRecord& record) {
  g_total_runs.fetch_add(1, std::memory_order_relaxed);
  g_total_trials.fetch_add(record.trials, std::memory_order_relaxed);
  double seen = g_total_busy_seconds.load(std::memory_order_relaxed);
  while (!g_total_busy_seconds.compare_exchange_weak(
      seen, seen + record.elapsed_seconds, std::memory_order_relaxed)) {
  }
  const std::lock_guard<std::mutex> lock(g_run_log_mutex);
  run_log().push_back(record);
}

namespace {

/// One trial's result, reduced to what the aggregate keeps.
struct Outcome {
  bool complete = false;
  /// Completion slot (slotted) or completion time after T_s (async).
  double completion = 0.0;
  /// Async only: max over nodes of full frames since T_s.
  double max_frames = 0.0;
  sim::RobustnessReport robustness;
  /// Set only when the trial tracked contacts, with its radio energy.
  std::optional<sim::EncounterReport> encounters;
  double energy = 0.0;
};

/// Runs one slotted trial, tracking contacts when `encounters` is set.
template <typename Run>
[[nodiscard]] Outcome run_slotted_trial(sim::SlotEngineConfig& engine,
                                        const sim::EncounterIndex* encounters,
                                        const Run& run) {
  // The tracker is chained in front of any on_reception hook the config
  // already carries.
  std::optional<sim::EncounterTracker> tracker;
  if (encounters != nullptr) {
    tracker.emplace(*encounters);
    engine.on_reception = [&tracker, inner = std::move(engine.on_reception)](
                              std::uint64_t slot, net::NodeId sender,
                              net::NodeId receiver, net::ChannelId channel) {
      tracker->on_reception(slot, sender, receiver);
      if (inner) inner(slot, sender, receiver, channel);
    };
  }
  const auto result = run(engine);
  Outcome outcome;
  outcome.complete = result.complete;
  outcome.completion = static_cast<double>(result.completion_slot);
  outcome.robustness = result.robustness;
  if (tracker.has_value()) {
    outcome.encounters = tracker->report();
    outcome.energy = sim::total_activity(result.activity).energy();
  }
  return outcome;
}

/// The one trial runner: per-trial engine configs prepared serially in
/// trial order (trial t seeded derive(seed, t), then the per_trial hook),
/// `run_one(engine config)` fanned out with each outcome landing in slot
/// t, then a fold in trial order and the run record. Parallel output is
/// therefore identical to serial output.
template <typename Stats, typename Config, typename RunOne>
[[nodiscard]] Stats run_trials(const Config& config, Clock::time_point start,
                               const RunOne& run_one) {
  constexpr bool kAsync = std::is_same_v<Stats, AsyncTrialStats>;
  const util::SeedSequence seeds(config.seed);
  Stats stats;
  stats.trials = config.trials;
  stats.threads_used = resolve_threads(config.threads, config.trials);

  // Prepared serially so per_trial hooks keep their single-threaded
  // contract.
  std::vector<decltype(config.engine)> engines;
  engines.reserve(config.trials);
  for (std::size_t t = 0; t < config.trials; ++t) {
    engines.push_back(config.engine);
    engines.back().seed = seeds.derive(t);
    if (config.per_trial) config.per_trial(t, engines.back());
  }

  std::vector<Outcome> outcomes(config.trials);
  dispatch_trials(config.trials, stats.threads_used, [&](std::size_t t) {
    outcomes[t] = run_one(engines[t]);
  });

  util::Samples* const completion = [&stats] {
    if constexpr (kAsync) {
      return &stats.completion_after_ts;
    } else {
      return &stats.completion_slots;
    }
  }();
  completion->reserve(config.trials);
  for (const Outcome& outcome : outcomes) {
    fold_robustness(stats.robustness, outcome.robustness);
    if (outcome.encounters.has_value()) {
      fold_encounters(stats.encounters, *outcome.encounters, outcome.energy);
    }
    if (!outcome.complete) continue;
    ++stats.completed;
    completion->add(outcome.completion);
    if constexpr (kAsync) stats.max_full_frames.add(outcome.max_frames);
  }
  stats.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  log_trial_run(make_run_record(stats, kAsync, *completion));
  return stats;
}

}  // namespace

SyncTrialStats run_sync_trials(const net::Network& network,
                               const sim::SyncPolicyFactory& factory,
                               const SyncTrialConfig& config) {
  return run_trials<SyncTrialStats>(
      config, Clock::now(),
      [&](sim::SlotEngineConfig& engine) {
        return run_slotted_trial(engine, config.encounters,
                                 [&](const sim::SlotEngineConfig& cfg) {
                                   return sim::run_slot_engine(network,
                                                               factory, cfg);
                                 });
      });
}

SyncTrialStats run_sync_trials(const net::Network& network,
                               const core::SyncPolicySpec& spec,
                               const SyncTrialConfig& config) {
  if (config.kernel == SyncKernel::kEngine) {
    return run_sync_trials(network, core::make_policy_factory(spec), config);
  }
  const auto start = Clock::now();
  const sim::SoaPolicyTable table = core::build_soa_policy_table(network, spec);

  // Flattened kernels handed out through a free-list, built on first need
  // (so at most one per worker): a kernel's per-trial arrays are reused
  // across runs but never shared between concurrent trials. Results depend
  // only on the trial config, so which kernel serves which trial is
  // irrelevant.
  std::mutex kernel_mutex;
  std::vector<std::unique_ptr<sim::SoaSlotKernel>> idle_kernels;
  return run_trials<SyncTrialStats>(
      config, start, [&](sim::SlotEngineConfig& engine) {
        std::unique_ptr<sim::SoaSlotKernel> kernel;
        {
          const std::lock_guard<std::mutex> lock(kernel_mutex);
          if (!idle_kernels.empty()) {
            kernel = std::move(idle_kernels.back());
            idle_kernels.pop_back();
          }
        }
        if (kernel == nullptr) {
          kernel = std::make_unique<sim::SoaSlotKernel>(network);
        }
        Outcome outcome = run_slotted_trial(
            engine, config.encounters,
            [&](const sim::SlotEngineConfig& cfg) {
              return kernel->run(table, cfg);
            });
        const std::lock_guard<std::mutex> lock(kernel_mutex);
        idle_kernels.push_back(std::move(kernel));
        return outcome;
      });
}

AsyncTrialStats run_async_trials(const net::Network& network,
                                 const sim::AsyncPolicyFactory& factory,
                                 const AsyncTrialConfig& config) {
  return run_trials<AsyncTrialStats>(
      config, Clock::now(), [&](const sim::AsyncEngineConfig& engine) {
        const auto result = sim::run_async_engine(network, factory, engine);
        Outcome outcome;
        outcome.complete = result.complete;
        outcome.robustness = result.robustness;
        if (result.complete) {
          outcome.completion = result.completion_time - result.t_s;
          std::uint64_t max_frames = 0;
          for (const std::uint64_t f : result.full_frames_since_ts) {
            max_frames = std::max(max_frames, f);
          }
          outcome.max_frames = static_cast<double>(max_frames);
        }
        return outcome;
      });
}

MultiRadioTrialStats run_multi_radio_trials(
    const net::Network& network, const sim::MultiRadioPolicyFactory& factory,
    const MultiRadioTrialConfig& config) {
  return run_trials<MultiRadioTrialStats>(
      config, Clock::now(), [&](sim::MultiRadioEngineConfig& engine) {
        return run_slotted_trial(engine, nullptr,
                                 [&](const sim::MultiRadioEngineConfig& cfg) {
                                   return sim::run_multi_radio_engine(
                                       network, factory, cfg);
                                 });
      });
}

}  // namespace m2hew::runner
