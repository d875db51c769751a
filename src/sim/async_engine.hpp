// Asynchronous continuous-time simulator (§IV).
//
// Each node divides its *local* time into frames of length L, each split
// into `slots_per_frame` equal local slots (the paper uses 3). Local time
// is projected onto common real time through a per-node drifting clock, so
// frames of different nodes are misaligned, of different real-time lengths,
// and drift against each other — exactly the geometry of Fig. 2.
//
// Reception semantics implement the paper's coverage definition: a node u
// listening on channel c for the whole of its frame g receives a clear
// message from neighbor v iff some transmitted slot of v on c lies
// completely within g and no other neighbor of u transmits on c during any
// part of that slot. A transmitting node sends the same message in every
// slot of its frame.
//
// Per-trial seeding and the common knobs (seed, loss, interference,
// indexed_reception, stop_when_complete, starts) come from the shared
// medium core (sim/engine_common.hpp, sim/trial_setup.hpp); the frame
// overlap/burst resolution stays engine-specific because the async medium
// is continuous, not slotted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/clock.hpp"
#include "sim/discovery_state.hpp"
#include "sim/energy.hpp"
#include "sim/engine_common.hpp"
#include "sim/policy.hpp"

namespace m2hew::sim {

/// Engine-specific knobs on top of the shared core (see EngineCommon).
/// `starts` entries are real times; `interference` is queried in *real
/// time*. Both sides of a link sample the same instant — the slot's
/// midpoint: a transmitted slot is suppressed when the transmitter is
/// jammed at its midpoint, and a reception fails when the receiver is
/// jammed at the candidate slot's midpoint — so a burst can never be seen
/// by one end of a link and missed by the other. PU activity is assumed
/// roughly constant over one slot (periods ≫ L/3). With
/// `indexed_reception` (the default) a transmit frame is scattered, as it
/// starts, over its sender's out-arcs into the inbox of every receiver
/// whose arc carries its channel, and a listening frame is resolved from
/// its own node's inbox alone, so the work per frame is proportional to
/// the node's degree at any network size. The reference path rescans
/// every in-neighbor's entire retained frame history. Both paths are
/// bit-identical by contract: candidate transmit frames are processed in
/// (sender id, frame start) order, so policy callbacks, loss-RNG draws
/// and recorded times agree.
///
/// Event order: the engine keeps one pending boundary per node — the end
/// of its current frame, which is the start of its next — ordered by
/// (time, node id). All nodes due at one instant are handled together:
/// their ending listening frames are resolved in node-id order, and if
/// discovery completes there the run stops before that instant's frames
/// start; otherwise their next frames start in node-id order.
struct AsyncEngineConfig : AsyncEngineCommon {
  /// Frame length L in local clock units.
  double frame_length = 1.0;
  /// Slots per frame; the paper's Algorithm 4 uses 3 (Lemma 7 depends on
  /// it). Exposed for the slot-count ablation in bench E5.
  unsigned slots_per_frame = 3;
  /// Hard budgets.
  double max_real_time = 1e12;
  std::uint64_t max_frames_per_node = 10'000'000;
  /// Builds the clock for a node; default (null) = ideal clocks with zero
  /// offset. Seeded deterministically per node by the engine.
  std::function<std::unique_ptr<Clock>(net::NodeId, std::uint64_t)>
      clock_builder;
};

struct AsyncEngineResult {
  bool complete = false;
  /// Real time at which the last link was first covered.
  double completion_time = 0.0;
  /// T_s: the latest node start time (all nodes active from here on).
  double t_s = 0.0;
  /// Frames started per node over the whole run.
  std::vector<std::uint64_t> frames_started;
  /// Per-node frame counts by radio mode over the whole run.
  std::vector<RadioActivity> activity;
  /// Per-node count of *full* frames that both started at/after T_s and
  /// ended at/before the completion time (the unit of Theorem 9's bound).
  /// Empty unless complete.
  std::vector<std::uint64_t> full_frames_since_ts;
  DiscoveryState state;
  /// Fault-robustness metrics; RobustnessReport::enabled is false when the
  /// config carried no fault plan.
  RobustnessReport robustness;
};

[[nodiscard]] AsyncEngineResult run_async_engine(
    const net::Network& network, const AsyncPolicyFactory& factory,
    const AsyncEngineConfig& config);

}  // namespace m2hew::sim
