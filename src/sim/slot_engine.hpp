// Synchronous slotted simulator (§II "Synchronous System").
//
// Global time proceeds in synchronized slots. In each slot every started
// node asks its policy for an action; then, per receiver u listening on
// channel c, u hears a clear message from a topology neighbor v iff v was
// the *only* neighbor of u transmitting on c in that slot (collisions
// produce indistinguishable noise; nodes cannot detect collisions).
//
// Variable start times (§III-B) are modeled by per-node start slots
// (EngineCommon::starts): before its start slot a node is silent and deaf;
// its policy's slot indices are node-local, matching a node that simply
// begins executing later.
//
// The channel semantics, loss model, interference model, per-trial
// seeding and reception resolution all live in the shared medium core
// (sim/engine_common.hpp, sim/trial_setup.hpp, sim/slot_medium.hpp) and
// are common to every engine. The multi-radio engine
// (sim/multi_radio_engine.hpp) is the same per-slot loop with several
// radios per node; this engine is its one-radio case.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.hpp"
#include "sim/discovery_state.hpp"
#include "sim/energy.hpp"
#include "sim/engine_common.hpp"
#include "sim/interference.hpp"
#include "sim/policy.hpp"

namespace m2hew::sim {

/// Engine-specific knobs on top of the shared core (seed, loss,
/// interference, indexed_reception, stop_when_complete, starts — see
/// EngineCommon). `starts` entries are global slot indices.
struct SlotEngineConfig : SlotEngineCommon {
  /// Hard budget on global slots simulated.
  std::uint64_t max_slots = 1'000'000;
  /// Optional observer invoked on every clear reception:
  /// (global slot, sender, receiver, channel).
  std::function<void(std::uint64_t, net::NodeId, net::NodeId, net::ChannelId)>
      on_reception;
};

struct SlotEngineResult {
  bool complete = false;
  /// Global slot index (0-based) of the slot in which the last link was
  /// covered; meaningful only if complete.
  std::uint64_t completion_slot = 0;
  std::uint64_t slots_executed = 0;
  /// Per-node slot counts by radio mode from the node's start slot on
  /// (slots before a node starts are not radio activity and are not
  /// counted, so activity[u].total() can be less than slots_executed).
  std::vector<RadioActivity> activity;
  DiscoveryState state;
  /// Fault-robustness metrics; RobustnessReport::enabled is false when the
  /// config carried no fault plan.
  RobustnessReport robustness;
};

/// Runs one trial. The factory is invoked once per node.
[[nodiscard]] SlotEngineResult run_slot_engine(const net::Network& network,
                                               const SyncPolicyFactory& factory,
                                               const SlotEngineConfig& config);

}  // namespace m2hew::sim
