// Shared engine-core configuration and bookkeeping (the channel-medium
// core). The paper defines ONE channel semantics (§II); the three engines
// (slot, async, multi-radio) differ only in how time is sliced. Everything
// a trial needs regardless of the slicing lives here: the root seed, the
// loss model, the dynamic primary-user field, the reception-resolution
// strategy switch, the stop condition and the per-node start schedule —
// plus the one validation routine, the activity/completion accounting and
// the post-resolution disposition chain all engines share.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "net/topology_provider.hpp"
#include "net/types.hpp"
#include "sim/discovery_state.hpp"
#include "sim/energy.hpp"
#include "sim/fault_plan.hpp"
#include "sim/radio.hpp"
#include "util/check.hpp"

namespace m2hew::sim {

/// Configuration shared by every engine, parameterized on the engine's
/// time axis: `std::uint64_t` (global slot index) for the slotted engines,
/// `double` (real time) for the asynchronous engine. Engine configs
/// inherit from this, so common knobs read identically across engines
/// (`config.loss_probability`, `config.starts`, ...).
template <typename Time>
struct EngineCommon {
  using TimePoint = Time;

  /// Root seed; node RNGs are derived as (seed, node) and the loss-model
  /// stream as (seed, N+1) — see TrialSetup.
  std::uint64_t seed = 1;

  /// Probability that an otherwise-clear reception is lost (models
  /// unreliable channels, §V extension (b)). 0 = reliable. A lost message
  /// is reported to the listener as silence (signal below sensitivity).
  double loss_probability = 0.0;

  /// Optional dynamic primary-user interference, queried per
  /// (time, node, channel). While active at a node on a channel: the
  /// node's transmissions there are suppressed (spectrum sensing vacates
  /// the channel) and listening there yields kCollision (PU noise). Null
  /// = no external interference. Must be deterministic.
  std::function<bool(Time, net::NodeId, net::ChannelId)> interference;

  /// Reception-resolution strategy. true (default): resolve through the
  /// per-channel transmitter index (SlotMedium for the slotted engines,
  /// the live transmit-frame interval index for the async engine).
  /// false: the original per-listener scan over all in-neighbors, kept as
  /// the naive reference implementation for the equivalence property
  /// tests. Both paths are bit-identical by contract — same policy
  /// callback order and same loss-RNG draw order (see
  /// docs/EXTENDING.md "Indexed reception & engine determinism").
  bool indexed_reception = true;

  /// Stop as soon as discovery completes (otherwise run the full budget).
  bool stop_when_complete = true;

  /// Per-node start schedule: global slot (slotted engines) or real time
  /// (async engine) at which each node begins executing. Before its start
  /// a node is silent and deaf and its radio is off. Empty = all nodes
  /// start at 0.
  std::vector<Time> starts;

  /// Fault-injection and dynamics plan: node churn, Gilbert–Elliott burst
  /// loss, scheduled spectrum faults and (async) drift wander — see
  /// sim/fault_plan.hpp. The default (all disabled) is the paper's static
  /// network and is guaranteed not to perturb any random stream.
  FaultPlan<Time> faults;

  /// Optional time-varying topology (net/topology_provider.hpp). When set,
  /// the Network the engine was handed must be the provider's
  /// union_network(); arcs carry traffic only while present in the
  /// current epoch. Null = the handed Network is static (today's path).
  const net::TopologyProvider* topology = nullptr;

  /// Epoch duration: slots (slotted engines) or real time (async engine)
  /// per epoch. Epoch e spans [e·epoch_length, (e+1)·epoch_length); runs
  /// longer than epoch_count() epochs stay on the last epoch. Must be > 0
  /// whenever `topology` has more than one epoch.
  Time epoch_length{};
};

/// The slotted engines' common config (slot, multi-radio).
using SlotEngineCommon = EngineCommon<std::uint64_t>;
/// The asynchronous engine's common config.
using AsyncEngineCommon = EngineCommon<double>;

/// The one validation routine for the shared knobs; every engine calls
/// this in its M2HEW_CHECK preamble.
template <typename Time>
inline void validate_engine_common(const EngineCommon<Time>& config,
                                   net::NodeId nodes) {
  M2HEW_CHECK(config.starts.empty() || config.starts.size() == nodes);
  M2HEW_CHECK(config.loss_probability >= 0.0 &&
              config.loss_probability < 1.0);
  if constexpr (std::is_floating_point_v<Time>) {
    for (const Time start : config.starts) M2HEW_CHECK(start >= Time{0});
  }
  validate_fault_plan(config.faults, nodes, config.loss_probability);
}

/// Resolves the topology provider an engine should run against, checking
/// the contract that the engine's Network is the provider's union: the
/// engine's discovery state, policies and completion test all live on the
/// union network, while the provider's epoch(e) gates which arcs carry
/// traffic. Returns null for the static single-epoch fast path (no
/// provider, or a provider whose single epoch IS the engine network).
template <typename Time>
[[nodiscard]] inline const net::TopologyProvider* topology_provider_of(
    const EngineCommon<Time>& config, const net::Network& network) {
  if (config.topology == nullptr) return nullptr;
  M2HEW_CHECK_MSG(&config.topology->union_network() == &network,
                  "engine must be built on the provider's union network");
  if (config.topology->epoch_count() == 1 &&
      &config.topology->epoch(0) == &network) {
    return nullptr;  // static case: the union is the only epoch
  }
  M2HEW_CHECK_MSG(config.epoch_length > Time{},
                  "multi-epoch topology needs a positive epoch_length");
  return config.topology;
}

/// Epoch index in force at time `t`: floor(t / epoch_length), clamped to
/// the provider's last epoch.
template <typename Time>
[[nodiscard]] inline std::size_t epoch_at(const net::TopologyProvider& provider,
                                          Time epoch_length, Time t) {
  const auto e = static_cast<std::size_t>(t / epoch_length);
  return std::min(e, provider.epoch_count() - 1);
}

/// External interference at (time, node, channel): the configured PU
/// schedule OR an active scheduled spectrum fault. While it is active a
/// transmitter vacates the channel and a listener hears noise.
template <typename Time>
struct Interference {
  const EngineCommon<Time>& config;
  const FaultState<Time>& faults;

  /// False when no query can ever report interference.
  [[nodiscard]] bool any() const {
    return static_cast<bool>(config.interference) || faults.has_spectrum();
  }
  [[nodiscard]] bool operator()(Time t, net::NodeId who,
                                net::ChannelId c) const {
    return (config.interference && config.interference(t, who, c)) ||
           faults.spectrum_blocked(t, who, c);
  }
};

/// Start time of node `u` under a (possibly empty) start schedule.
template <typename Time>
[[nodiscard]] inline Time start_of(const std::vector<Time>& starts,
                                   net::NodeId u) {
  return starts.empty() ? Time{} : starts[u];
}

/// Folds one slot/frame action mode into a node's activity tally.
inline void count_mode(RadioActivity& activity, Mode mode) {
  switch (mode) {
    case Mode::kTransmit:
      ++activity.transmit;
      break;
    case Mode::kReceive:
      ++activity.receive;
      break;
    case Mode::kQuiet:
      ++activity.quiet;
      break;
  }
}

/// Completion accounting shared by all engines: latches (complete,
/// completion) the first time the state covers every link and returns
/// true iff the engine should stop now.
template <typename Time>
[[nodiscard]] inline bool note_completion(const DiscoveryState& state,
                                          bool& complete, Time& completion,
                                          Time now, bool stop_when_complete) {
  if (complete || !state.complete()) return false;
  complete = true;
  completion = now;
  return stop_when_complete;
}

/// What became of a message whose sender the medium resolved uniquely at a
/// listener. dispose_reception is the one place that decides it, for every
/// engine; each engine maps the result onto its own feedback.
enum class Disposition : unsigned char {
  kNoise,       ///< a jammer's burst: noise, reads as a collision
  kSuppressed,  ///< a non-responder ignoring this victim: silence
  kLost,        ///< dropped by the loss model: silence
  kRejected,    ///< decoded, refused by the listener's admission gate
  kFake,        ///< decoded Byzantine fake ID, admitted
  kAdmitted,    ///< decoded real sender, admitted: the engine records it
};

struct Reception {
  Disposition disposition = Disposition::kLost;
  /// The ID the message announced: the sender's own, or its fake ID.
  net::NodeId announced = net::kInvalidNode;
  /// kFake only: the fake ID's first decode at this listener.
  bool first_fake = false;
};

/// What a listening radio reports to its policy for a disposition.
[[nodiscard]] inline ListenOutcome listen_outcome(Disposition d) noexcept {
  switch (d) {
    case Disposition::kNoise:
      return ListenOutcome::kCollision;
    case Disposition::kSuppressed:
    case Disposition::kLost:
      return ListenOutcome::kSilence;
    default:
      return ListenOutcome::kClear;
  }
}

/// The post-resolution disposition chain, in its one order: jammer noise →
/// non-responder suppression → loss → Byzantine fake ID → admission gate.
/// Noise and suppression are not decodable messages, so they consume no
/// loss draw. `admit(announced)` is the listener policy's admission gate
/// (paths without policy objects pass one that always admits). The fault
/// layer's bookkeeping (isolation, fake-table and rediscovery notes, all at
/// time `t`) happens here; recording an admitted real sender into the
/// engine's coverage is left to the caller.
template <typename Time, typename Admit>
[[nodiscard]] inline Reception dispose_reception(
    FaultState<Time>& faults, net::NodeId sender, net::NodeId listener,
    Time t, util::Rng& loss_rng, double loss_probability, Admit&& admit) {
  const AdversaryRole role = faults.role(sender);
  if (role == AdversaryRole::kJammer) return {Disposition::kNoise, sender};
  if (role == AdversaryRole::kNonResponder &&
      faults.suppressed(sender, listener)) {
    return {Disposition::kSuppressed, sender};
  }
  if (faults.message_lost(sender, listener, loss_rng, loss_probability)) {
    return {Disposition::kLost, sender};
  }
  const bool fake = role == AdversaryRole::kByzantine;
  const net::NodeId announced = fake ? faults.fake_id(sender) : sender;
  if (!admit(announced)) {
    faults.note_isolation(listener, announced, t);
    return {Disposition::kRejected, announced};
  }
  if (fake) {
    return {Disposition::kFake, announced,
            faults.note_fake_decode(sender, listener, t)};
  }
  faults.note_reception(sender, listener, t);
  return {Disposition::kAdmitted, sender};
}

/// History-retention horizon factor shared by the async engine's frame
/// histories and its per-channel live-transmit index: entries ending
/// before `now - kHistoryHorizonFactor × max frame length` can no longer
/// overlap any unresolved listening frame and are pruned. A tighter
/// factor can drop a transmit frame a still-unresolved listening frame
/// overlaps (see docs/EXTENDING.md).
inline constexpr double kHistoryHorizonFactor = 4.0;

}  // namespace m2hew::sim
