// Multi-trial experiment runners: repeat an engine run over independent
// seeds and aggregate completion statistics, the unit of every bench.
//
// Trials are dispatched across a worker pool (TrialConfig::threads) but
// the aggregate output is bit-for-bit identical to a serial run: trial t
// always uses seeds.derive(t), per-trial results land in a buffer indexed
// by t, and the reduction walks that buffer in trial order. See
// docs/EXTENDING.md "Parallel trials & determinism" for the policy-author
// contract this relies on.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/policy_spec.hpp"
#include "net/network.hpp"
#include "sim/async_engine.hpp"
#include "sim/encounter.hpp"
#include "sim/multi_radio_engine.hpp"
#include "sim/slot_engine.hpp"
#include "util/stats.hpp"

namespace m2hew::runner {

/// Process-wide default worker count used when a trial config leaves
/// `threads == 0`. Starts at hardware concurrency; tools set it from
/// --threads so every run_*_trials call in the binary picks it up.
void set_default_trial_threads(std::size_t threads) noexcept;
[[nodiscard]] std::size_t default_trial_threads() noexcept;

/// Cumulative trial-layer activity over a set of trial runs. Benches and
/// tools print the process totals once at the end so every report carries
/// its own throughput.
struct TrialThroughput {
  std::size_t runs = 0;
  std::size_t trials = 0;
  double busy_seconds = 0.0;  ///< sum of per-run wall-clock durations

  [[nodiscard]] double trials_per_second() const noexcept {
    return busy_seconds <= 0.0
               ? 0.0
               : static_cast<double>(trials) / busy_seconds;
  }
};

/// Robustness aggregates over faulted trials, shared by every trial-stats
/// type. Populated only from trials whose engine config carried a fault
/// plan (sim::FaultPlan::any()); `fault_trials` counts those.
struct RobustnessStats {
  std::size_t fault_trials = 0;
  /// Per-trial discovery recall restricted to surviving true neighbors.
  util::Samples surviving_recall;
  /// Per-trial ghost-neighbor-entry count (stale table knowledge).
  util::Samples ghost_entries;
  /// Per-trial mean time-to-rediscovery, over trials with at least one
  /// rediscovered link (engine time units).
  util::Samples rediscovery_times;
  /// Links eligible for / achieving rediscovery, summed over fault trials.
  std::size_t recovered_links = 0;
  std::size_t rediscovered_links = 0;
  /// Trials whose plan carried an enabled adversary block.
  std::size_t adversary_trials = 0;
  /// Per-adversary-trial precision under attack
  /// (sim::RobustnessReport::precision_under_attack).
  util::Samples precision_under_attack;
  /// Per-adversary-trial mean time-to-isolation, over trials with at
  /// least one isolated fake (engine time units).
  util::Samples isolation_times;
  /// Fake / isolated-fake / false-positive entry counts, summed over
  /// adversary trials.
  std::size_t fake_entries = 0;
  std::size_t isolated_fakes = 0;
  std::size_t honest_isolated = 0;

  [[nodiscard]] bool enabled() const noexcept { return fault_trials > 0; }
  [[nodiscard]] bool adversarial() const noexcept {
    return adversary_trials > 0;
  }
  [[nodiscard]] double rediscovery_rate() const noexcept {
    return recovered_links == 0
               ? 0.0
               : static_cast<double>(rediscovered_links) /
                     static_cast<double>(recovered_links);
  }
  /// Isolated fakes / (isolated + surviving fakes): how much of the
  /// adversarial pollution the trust policy eventually cut off.
  [[nodiscard]] double isolation_rate() const noexcept {
    const std::size_t total = fake_entries + isolated_fakes;
    return total == 0 ? 0.0
                      : static_cast<double>(isolated_fakes) /
                            static_cast<double>(total);
  }
};

/// Encounter (contact) aggregates over trials run against a time-varying
/// topology with an sim::EncounterIndex attached
/// (SyncTrialConfig::encounters); `trials` counts those. All Samples are
/// filled in trial order, so parallel == serial bit-for-bit.
struct EncounterStats {
  std::size_t trials = 0;
  /// Observable contacts / contacts detected at least once, summed.
  std::uint64_t contacts = 0;
  std::uint64_t detected = 0;
  /// Per detected contact: slots from contact open to first reception,
  /// and the same normalized by the contact's duration.
  util::Samples detection_latency;
  util::Samples latency_over_duration;
  /// Per trial: fraction of contacts never detected.
  util::Samples missed_fraction;
  /// Per trial with >= 1 detection: total radio energy (RadioActivity
  /// default costs) divided by detected-contact count.
  util::Samples energy_per_detected;

  [[nodiscard]] bool enabled() const noexcept { return trials > 0; }
  [[nodiscard]] double detection_rate() const noexcept {
    return contacts == 0 ? 0.0
                         : static_cast<double>(detected) /
                               static_cast<double>(contacts);
  }
};

/// One completed run_sync_trials / run_async_trials call. The process
/// keeps a log of these (in call order) so bench binaries can emit their
/// completion statistics into the machine-readable BENCH_<id>.json
/// artifact without per-bench wiring.
struct TrialRunRecord {
  bool async = false;
  std::size_t trials = 0;
  std::size_t completed = 0;
  /// Mean / p90 of completion slots (sync) or completion-after-T_s
  /// (async), over completed trials; zero when none completed.
  double mean_completion = 0.0;
  double p90_completion = 0.0;
  double elapsed_seconds = 0.0;
  std::size_t threads_used = 1;
  /// Robustness aggregates, all zero unless some trial carried a fault
  /// plan; means are over fault trials.
  std::size_t fault_trials = 0;
  double mean_surviving_recall = 0.0;
  double mean_ghost_entries = 0.0;
  double mean_rediscovery = 0.0;
  std::size_t recovered_links = 0;
  std::size_t rediscovered_links = 0;
  /// Adversary aggregates, all zero unless some trial carried an enabled
  /// adversary block; means are over adversary trials.
  std::size_t adversary_trials = 0;
  double mean_precision_under_attack = 0.0;
  double mean_isolation = 0.0;
  std::size_t fake_entries = 0;
  std::size_t isolated_fakes = 0;
  std::size_t honest_isolated = 0;
  /// Encounter aggregates, all zero unless the run tracked contacts
  /// (EncounterStats::enabled()); means are over detected contacts or
  /// encounter trials as documented on EncounterStats.
  std::size_t encounter_trials = 0;
  std::uint64_t contacts = 0;
  std::uint64_t detected_contacts = 0;
  double mean_detection_latency = 0.0;
  double p90_detection_latency = 0.0;
  double mean_latency_fraction = 0.0;
  double mean_missed_fraction = 0.0;
  double mean_energy_per_detected = 0.0;

  [[nodiscard]] double success_rate() const noexcept {
    return trials == 0 ? 0.0
                       : static_cast<double>(completed) /
                             static_cast<double>(trials);
  }
};

/// Snapshot of every trial run executed by this process so far.
[[nodiscard]] std::vector<TrialRunRecord> trial_run_log();

/// Sums runs, busy time being the sum of their wall-clock durations.
[[nodiscard]] TrialThroughput throughput_of(
    const std::vector<TrialRunRecord>& runs) noexcept;

/// throughput_of(trial_run_log()): every run_*_trials call of this process
/// and every sharded sweep point reduced in it.
[[nodiscard]] TrialThroughput trial_throughput_totals();

/// What every trial aggregate carries, whatever the engine.
struct TrialStatsCommon {
  std::size_t trials = 0;
  std::size_t completed = 0;  ///< trials finishing within the budget
  /// Robustness aggregates from faulted trials (empty without a plan).
  RobustnessStats robustness;
  /// Encounter aggregates (empty unless SyncTrialConfig::encounters set;
  /// contact tracking is slotted-only).
  EncounterStats encounters;
  /// Wall-clock duration of the whole run and the worker count that
  /// produced it (throughput reporting; not part of the deterministic
  /// aggregate).
  double elapsed_seconds = 0.0;
  std::size_t threads_used = 1;

  [[nodiscard]] double success_rate() const noexcept {
    return trials == 0 ? 0.0
                       : static_cast<double>(completed) /
                             static_cast<double>(trials);
  }
  [[nodiscard]] double trials_per_second() const noexcept {
    return elapsed_seconds <= 0.0
               ? 0.0
               : static_cast<double>(trials) / elapsed_seconds;
  }
};

/// Aggregate over synchronous trials.
struct SyncTrialStats : TrialStatsCommon {
  /// Completion slot (0-based index of the covering slot) of completed
  /// trials only.
  util::Samples completion_slots;
};

/// The knobs every trial runner shares, over its engine's config type.
template <typename Engine>
struct TrialConfig {
  std::size_t trials = 30;
  std::uint64_t seed = 1;  ///< root seed; trial t uses derive(seed, t)
  Engine engine;           ///< engine.seed is overwritten per trial
  /// Optional per-trial hook to vary the engine config (e.g. randomized
  /// start slots). Called with (trial index, config to mutate). Hooks run
  /// serially on the calling thread, in trial order, before any trial
  /// executes — they need not be thread-safe.
  std::function<void(std::size_t, Engine&)> per_trial;
  /// Worker threads for the trial fan-out: 1 = serial on the calling
  /// thread, 0 = default_trial_threads(). Aggregate results are identical
  /// for every value.
  std::size_t threads = 0;
};

/// The `kernel` knob of specs and the CLI. It is accepted and echoed but
/// no longer picks the loop: the policy does (a SyncPolicySpec runs on
/// sim::SoaSlotKernel, policy objects on run_slot_engine), and the
/// engine==soa equivalence suite pins both loops to identical results.
enum class SyncKernel { kEngine, kSoa };

struct SyncTrialConfig : TrialConfig<sim::SlotEngineConfig> {
  /// Echo of the `kernel` knob; neither overload reads it.
  SyncKernel kernel = SyncKernel::kEngine;
  /// Optional contact schedule (caller-owned, must outlive the run): when
  /// set, every trial tracks per-contact detection through the engine's
  /// on_reception hook — chained after any hook the per_trial callback
  /// installs — and the aggregate lands in SyncTrialStats::encounters.
  const sim::EncounterIndex* encounters = nullptr;
};

[[nodiscard]] SyncTrialStats run_sync_trials(
    const net::Network& network, const sim::SyncPolicyFactory& factory,
    const SyncTrialConfig& config);

/// Spec-driven synchronous trials, always on the SoA kernel with the
/// spec's policy table. The stats equal the factory overload's with
/// core::make_policy_factory(spec), which is how a caller (a test's
/// reference side, say) runs the spec's policy objects instead.
[[nodiscard]] SyncTrialStats run_sync_trials(const net::Network& network,
                                             const core::SyncPolicySpec& spec,
                                             const SyncTrialConfig& config);

/// Aggregate over asynchronous trials.
struct AsyncTrialStats : TrialStatsCommon {
  /// Real completion time minus T_s, completed trials only.
  util::Samples completion_after_ts;
  /// max over nodes of full frames since T_s at completion (Theorem 9's
  /// measured quantity), completed trials only.
  util::Samples max_full_frames;
};

using AsyncTrialConfig = TrialConfig<sim::AsyncEngineConfig>;

[[nodiscard]] AsyncTrialStats run_async_trials(
    const net::Network& network, const sim::AsyncPolicyFactory& factory,
    const AsyncTrialConfig& config);

/// Multi-radio trials aggregate the same quantities as synchronous ones
/// (the engine is slotted), so the stats type is shared.
using MultiRadioTrialStats = SyncTrialStats;

using MultiRadioTrialConfig = TrialConfig<sim::MultiRadioEngineConfig>;

[[nodiscard]] MultiRadioTrialStats run_multi_radio_trials(
    const net::Network& network, const sim::MultiRadioPolicyFactory& factory,
    const MultiRadioTrialConfig& config);

// --- One trial outcome and one fold ------------------------------------
//
// Every runner reduces per-trial TrialOutcomes through one fold, in trial
// order. The sweep service's sharded path (src/service/) decodes
// worker-streamed outcomes into the same type (runner/streaming.hpp) and
// ends in the same fold, which makes "daemon-sharded == batch,
// bit-identical" a structural property rather than a test-enforced
// coincidence.

/// One trial's result, reduced to what the aggregate keeps.
struct TrialOutcome {
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

/// The outcome of one slotted trial (slot engine, multi-radio engine or
/// SoA kernel result), before any contact tracking is attached.
template <typename SlottedResult>
[[nodiscard]] TrialOutcome slotted_outcome(const SlottedResult& result) {
  TrialOutcome outcome;
  outcome.complete = result.complete;
  outcome.completion = static_cast<double>(result.completion_slot);
  outcome.robustness = result.robustness;
  return outcome;
}

/// Folds slotted outcomes, given in trial order, into the aggregate, stamps
/// the wall-clock duration and worker count, and appends the run record to
/// the process run log: the last step of run_sync_trials and of a sharded
/// sweep point.
[[nodiscard]] SyncTrialStats reduce_sync_trials(
    const std::vector<TrialOutcome>& outcomes, double elapsed_seconds,
    std::size_t threads);

/// Builds the run-log entry for a finished slotted aggregate.
[[nodiscard]] TrialRunRecord make_sync_run_record(const SyncTrialStats& stats);

}  // namespace m2hew::runner
