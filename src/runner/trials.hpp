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

/// Cumulative trial-layer activity of this process, summed over every
/// run_sync_trials / run_async_trials call. Benches and tools print this
/// once at the end so every report carries its own throughput.
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
[[nodiscard]] TrialThroughput trial_throughput_totals() noexcept;

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

/// Which synchronous inner loop executes each trial. Both produce
/// bit-identical aggregates (the SoA==engine equivalence suite pins the
/// per-trial results); kSoa is the large-N path.
enum class SyncKernel {
  kEngine,  ///< run_slot_engine: virtual policies, DiscoveryState matrix
  kSoa,     ///< sim::SoaSlotKernel: flat arrays, CSR coverage
};

struct SyncTrialConfig : TrialConfig<sim::SlotEngineConfig> {
  /// Inner loop selection; honored only by the SyncPolicySpec overload
  /// (the factory overload has no data representation to hand the SoA
  /// kernel and always runs the classic engine).
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

/// Spec-driven synchronous trials: dispatches on `config.kernel`, running
/// either the classic slot engine (via the spec's policy factory) or the
/// SoA kernel (via the spec's policy table). Identical stats either way.
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

// --- Reduction building blocks shared with the streaming path ----------
//
// The sweep service (src/service/) reduces worker-streamed per-trial
// records through runner/streaming.hpp, which reuses exactly these hooks;
// keeping them here is what makes "daemon-sharded == batch, bit-identical"
// a structural property rather than a test-enforced coincidence.

/// Folds one trial's robustness report into the aggregate. Call in trial
/// order: the retained Samples preserve insertion order.
void fold_robustness(RobustnessStats& aggregate,
                     const sim::RobustnessReport& report);

/// Folds one trial's encounter report (plus the trial's total radio
/// energy under the default costs) into the aggregate, in trial order.
void fold_encounters(EncounterStats& aggregate,
                     const sim::EncounterReport& report, double trial_energy);

/// Builds the run-log entry for a finished slotted aggregate.
[[nodiscard]] TrialRunRecord make_sync_run_record(const SyncTrialStats& stats);

/// Appends a record to the process-wide run log and throughput totals —
/// so daemon-sharded runs surface in bench JSON exactly like batch runs.
void log_trial_run(const TrialRunRecord& record);

}  // namespace m2hew::runner
