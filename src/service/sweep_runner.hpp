// Sweep execution: one SweepSpec in, one aggregate per sweep point out.
//
// Two paths produce the SAME numbers:
//
//   workers <= 1   batch — runner::run_sync_trials in-process, exactly
//                  what tools/m2hew_experiment does.
//   workers  > 1   sharded — per sweep point, `workers` forked processes
//                  each run the trial subset {t : t ≡ w (mod workers)}
//                  serially and stream one wire line per trial back; the
//                  parent places each decoded runner::TrialOutcome at its
//                  trial index (runner/streaming.hpp).
//
// Both paths end in runner::reduce_sync_trials over the outcomes in trial
// order, and trial t's engine seed is derive(root, t) in both, so the
// aggregates are bit-identical (pinned by sweep_service_test). Wall-clock
// fields (elapsed_seconds, threads_used) are the only difference.
//
// A worker that dies without its end-of-shard marker (crash, SIGKILL)
// leaves its remaining slots empty; the parent re-runs exactly those
// trials in-process and the sweep still completes with identical results.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runner/trials.hpp"
#include "service/sweep_spec.hpp"

namespace m2hew::service {

struct SweepPointResult {
  double sweep_value = 0.0;
  runner::SyncTrialStats stats;
};

struct SweepResult {
  std::vector<SweepPointResult> points;  ///< one per spec.sweep_values
  std::size_t workers = 1;               ///< resolved process fan-out
};

/// Runs every sweep point of the spec. `workers` is the process fan-out
/// per point (0 or 1 = batch path). Returns false with a one-line message
/// in *error if a sweep point's scenario cannot be built or applied.
[[nodiscard]] bool run_sweep(const SweepSpec& spec, std::size_t workers,
                             SweepResult& result, std::string* error);

}  // namespace m2hew::service
