// Multi-radio synchronous engine — the model of related work [19]
// (Raniwala & Chiueh), where each node carries several transceivers. The
// paper's algorithms assume a single transceiver (§II); this engine
// quantifies what extra interfaces buy (bench E18).
//
// Semantics per slot: every radio of every started node independently
// transmits, receives or idles on a channel. Radios of one node must be
// tuned to distinct channels (no self-interference is modelled beyond
// that constraint; ideal channel filters are assumed). A listening radio
// hears a clear message iff exactly one in-neighbor of its node transmits
// on its channel over an arc carrying that channel — the §II semantics,
// resolved per radio through the same SlotMedium as the single-radio slot
// engine, with the same loss, primary-user interference, start-schedule
// and indexed/reference machinery (see sim/engine_common.hpp). With
// radio_count == 1 for every node this engine is bit-identical to
// run_slot_engine (the engine-parity property test enforces it).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/radio.hpp"
#include "sim/slot_engine.hpp"
#include "util/rng.hpp"

namespace m2hew::sim {

/// Per-slot policy for a node with a fixed number of radios. The returned
/// vector must have exactly `radio_count` entries with pairwise-distinct
/// channels among non-quiet entries. Feedback mirrors SyncPolicy, tagged
/// with the radio index it arrived on.
class MultiRadioPolicy {
 public:
  virtual ~MultiRadioPolicy() = default;
  [[nodiscard]] virtual std::vector<SlotAction> next_slot(util::Rng& rng) = 0;
  [[nodiscard]] virtual unsigned radio_count() const = 0;
  /// Called when radio `radio` clearly receives from `from`.
  virtual void observe_reception(unsigned radio, net::NodeId from,
                                 bool first_time) {
    (void)radio;
    (void)from;
    (void)first_time;
  }
  /// Called once per listening radio per slot with what that radio heard.
  virtual void observe_listen_outcome(unsigned radio, ListenOutcome outcome) {
    (void)radio;
    (void)outcome;
  }

  /// Admission gate, consulted before a decoded announcement is recorded;
  /// the node's single neighbor table is shared by its radios, so there is
  /// no radio argument. See sim::SyncPolicy::admit_neighbor.
  [[nodiscard]] virtual bool admit_neighbor(net::NodeId announced) {
    (void)announced;
    return true;
  }
};

using MultiRadioPolicyFactory = std::function<std::unique_ptr<MultiRadioPolicy>(
    const net::Network&, net::NodeId)>;

/// The multi-radio engine shares the slot engine's config and result (see
/// sim/slot_engine.hpp); both are instantiations of one slotted loop.
/// `starts` entries are global slot indices. Result activity is summed over
/// a node's radios (one count per radio per started slot, so
/// activity[u].total() == started slots × radio_count); suppressed
/// transmissions count as quiet, exactly as in the slot engine.
using MultiRadioEngineConfig = SlotEngineConfig;
using MultiRadioEngineResult = SlotEngineResult;

/// Runs one trial. Aborts unless config.max_slots >= 1, every policy has at
/// least one radio, and no two radios of one node share a channel.
[[nodiscard]] MultiRadioEngineResult run_multi_radio_engine(
    const net::Network& network, const MultiRadioPolicyFactory& factory,
    const MultiRadioEngineConfig& config);

}  // namespace m2hew::sim
