// The worker wire format of the sweep service's sharded runs.
//
// The sweep service shards a trial range across worker processes; each
// worker streams one line per finished trial, its runner::TrialOutcome
// tagged with the trial index, back over a pipe. The parent places each
// decoded outcome at its trial index and, once every slot is filled, hands
// the outcomes in trial order to runner::reduce_sync_trials, the fold the
// batch runner ends in. Arrival order therefore never reaches the
// aggregate.
//
// The format is line-oriented ASCII with C99 hexfloat ("%a") doubles, so
// every value round-trips bit-exactly through the pipe. See
// docs/OPERATIONS.md "Worker protocol" for the framing contract.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/trials.hpp"

namespace m2hew::runner {

/// One wire line (no trailing newline): "R <trial> <complete> <slot:%a>
/// <fault> <surv> <cov> <ghost> <rec> <red> <mean:%a> <adv> <real>
/// <fake> <isolated> <honest> <isolation:%a>". It carries what the slotted
/// fold reads: completion and the robustness counts behind fold_robustness.
/// Robustness fields the fold never reads (crashed_nodes, down_at_end,
/// adversary_nodes, max_rediscovery, max_isolation), max_frames and
/// encounter reports are not carried; the sweep service tracks no contacts.
[[nodiscard]] std::string encode_outcome(std::size_t trial,
                                         const TrialOutcome& outcome);

/// Parses a wire line into (trial, outcome); nullopt on anything malformed
/// (wrong tag, missing fields, trailing garbage). Malformed lines are a
/// protocol violation the caller surfaces as a worker failure, never
/// silently skipped data.
[[nodiscard]] std::optional<std::pair<std::size_t, TrialOutcome>>
decode_outcome(std::string_view line);

/// Decodes an outcome line into `slots[trial]`. Returns false, touching
/// nothing, when the line is not a well-formed outcome line. A well-formed
/// line whose trial index is out of range or already filled is consumed
/// (returns true) but leaves `slots` untouched, so a respawned worker
/// re-covering ground stays harmless.
[[nodiscard]] bool place_outcome(
    std::string_view line, std::vector<std::optional<TrialOutcome>>& slots);

/// End-of-shard marker: "E <shard> <records-emitted>". A worker that dies
/// mid-shard never writes it, which is how the parent tells a crash from
/// a clean finish even when the exit status is unavailable.
[[nodiscard]] std::string encode_end_marker(std::size_t shard,
                                            std::size_t emitted);
[[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>>
decode_end_marker(std::string_view line);

}  // namespace m2hew::runner
