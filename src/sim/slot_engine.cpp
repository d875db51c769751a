// The one slotted per-slot loop. run_slot_engine and run_multi_radio_engine
// are its two instantiations: a SyncPolicy is the one-radio case, resolved
// at compile time, so the single-radio engine keeps flat per-node action
// storage and one virtual call per node-slot.
#include "sim/slot_engine.hpp"

#include <algorithm>
#include <span>
#include <type_traits>

#include "sim/multi_radio_engine.hpp"
#include "sim/slot_medium.hpp"
#include "sim/trial_setup.hpp"
#include "util/check.hpp"

namespace m2hew::sim {

namespace {

// The two slotted policy interfaces differ only in how many actions a poll
// returns and in the radio argument of their feedback.
void poll(SyncPolicy& policy, util::Rng& rng, SlotAction& out) {
  out = policy.next_slot(rng);
}
void poll(MultiRadioPolicy& policy, util::Rng& rng,
          std::vector<SlotAction>& out) {
  out = policy.next_slot(rng);
  M2HEW_CHECK_MSG(out.size() == policy.radio_count(),
                  "policy returned wrong radio count");
  for (std::size_t r = 0; r < out.size(); ++r) {
    for (std::size_t q = 0; q < r; ++q) {
      M2HEW_CHECK_MSG(out[r].mode == Mode::kQuiet ||
                          out[q].mode == Mode::kQuiet ||
                          out[q].channel != out[r].channel,
                      "two radios of one node on the same channel");
    }
  }
}

// Radio 0 takes `action`, every other radio stays quiet.
void set_first(SlotAction& out, SlotAction action) { out = action; }
void set_first(std::vector<SlotAction>& out, SlotAction action) {
  std::fill(out.begin(), out.end(), SlotAction{});
  out[0] = action;
}

void observe_outcome(SyncPolicy& policy, unsigned, ListenOutcome outcome) {
  policy.observe_listen_outcome(outcome);
}
void observe_outcome(MultiRadioPolicy& policy, unsigned radio,
                     ListenOutcome outcome) {
  policy.observe_listen_outcome(radio, outcome);
}

void observe_heard(SyncPolicy& policy, unsigned, net::NodeId from,
                   bool first_time) {
  policy.observe_reception(from, first_time);
}
void observe_heard(MultiRadioPolicy& policy, unsigned radio, net::NodeId from,
                   bool first_time) {
  policy.observe_reception(radio, from, first_time);
}

template <typename Policy>
SlotEngineResult run_slotted(
    const net::Network& network,
    const typename TrialSetup<Policy>::Factory& factory,
    const SlotEngineConfig& config) {
  constexpr bool kOneRadio = std::is_same_v<Policy, SyncPolicy>;
  const net::NodeId n = network.node_count();
  validate_engine_common(config, n);

  TrialSetup<Policy> setup(network, factory, config.seed);
  FaultState<std::uint64_t> faults(network, setup.seeds(), config.faults);

  // Node u's actions, one per radio in radio order: flat storage in the
  // one-radio case, a vector per node otherwise.
  std::conditional_t<kOneRadio, std::vector<SlotAction>,
                     std::vector<std::vector<SlotAction>>>
      actions(n);
  const auto radios = [&actions](net::NodeId u) -> std::span<SlotAction> {
    if constexpr (kOneRadio) {
      return {&actions[u], 1};
    } else {
      return actions[u];
    }
  };
  if constexpr (!kOneRadio) {
    for (net::NodeId u = 0; u < n; ++u) {
      M2HEW_CHECK(setup.policy(u).radio_count() >= 1);
      actions[u].resize(setup.policy(u).radio_count());
    }
  }

  const Interference<std::uint64_t> jammed{config, faults};
  const bool has_interference = jammed.any();

  SlotEngineResult result{.activity = std::vector<RadioActivity>(n),
                          .state = DiscoveryState(network),
                          .robustness = {}};
  SlotMedium medium(network.universe_size(), config.indexed_reception);

  // Time-varying topology: `cur` is the link set in force this slot,
  // swapped at epoch boundaries. Policies, discovery state and completion
  // stay on the union `network`; only reception resolution sees `cur`.
  const net::TopologyProvider* provider =
      topology_provider_of(config, network);
  const net::Network* cur = &network;

  for (std::uint64_t slot = 0; slot < config.max_slots; ++slot) {
    ++result.slots_executed;
    if (provider != nullptr) {
      cur = &provider->epoch(epoch_at(*provider, config.epoch_length, slot));
    }

    for (net::NodeId u = 0; u < n; ++u) {
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        // Not started or crashed: all radios quiet, and the policy is not
        // polled (its slot indices are node-local).
        set_first(actions[u], SlotAction{});
      } else if (faults.scripted(u)) {
        // Adversary roles replace the node's policy on radio 0. Their
        // policy objects are never polled, so recovery resets are moot.
        set_first(actions[u], faults.adversary_action(u, setup.rng(u)));
      } else {
        if (faults.consume_reset(u, slot)) setup.reset_policy(u);
        poll(setup.policy(u), setup.rng(u), actions[u]);
        M2HEW_DCHECK(std::ranges::all_of(radios(u), [&](const SlotAction& a) {
          return a.mode == Mode::kQuiet ||
                 network.available(u).contains(a.channel);
        }));
      }
    }

    // Transmissions on a channel with active primary-user interference at
    // the transmitter are suppressed (the node senses the PU and vacates,
    // idling that radio for the slot).
    if (has_interference) {
      for (net::NodeId u = 0; u < n; ++u) {
        for (SlotAction& action : radios(u)) {
          if (action.mode == Mode::kTransmit &&
              jammed(slot, u, action.channel)) {
            action.mode = Mode::kQuiet;
          }
        }
      }
    }

    // Radio accounting starts at the node's start slot, one count per
    // radio: before that the node is not executing and its radio is off
    // (E13's idle energy would otherwise be inflated for late starters). A
    // crashed node's radios are off for the same reason.
    for (net::NodeId u = 0; u < n; ++u) {
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        continue;
      }
      for (const SlotAction& action : radios(u)) {
        count_mode(result.activity[u], action.mode);
      }
    }

    // One O(#transmitters) sweep groups this slot's (non-suppressed)
    // transmitting radios by channel; the sweep runs in node id order so
    // each bucket stays id-sorted (distinct channels per node guarantee a
    // node appears at most once per bucket).
    if (config.indexed_reception) {
      medium.begin_slot();
      for (net::NodeId u = 0; u < n; ++u) {
        for (const SlotAction& action : radios(u)) {
          if (action.mode != Mode::kTransmit) continue;
          medium.add_transmitter(action.channel, u);
        }
      }
    }

    // Reception resolution, per listening radio in (node id, radio index)
    // order: u hears v iff v is the only in-neighbor transmitting on u's
    // channel whose arc to u carries that channel (transmissions that do
    // not propagate to u neither deliver nor interfere).
    for (net::NodeId u = 0; u < n; ++u) {
      const std::span<const SlotAction> mine = radios(u);
      for (unsigned r = 0; r < mine.size(); ++r) {
        if (mine[r].mode != Mode::kReceive) continue;
        Policy& policy = setup.policy(u);
        const net::ChannelId c = mine[r].channel;

        // Active primary-user noise at the listener drowns the channel.
        if (has_interference && jammed(slot, u, c)) {
          observe_outcome(policy, r, ListenOutcome::kCollision);
          continue;
        }

        const SlotMedium::Resolution heard =
            config.indexed_reception
                ? medium.resolve(*cur, u, c)
                : SlotMedium::resolve_reference(
                      *cur, u, c, [&](net::NodeId v) {
                        for (const SlotAction& theirs : radios(v)) {
                          if (theirs.mode == Mode::kTransmit &&
                              theirs.channel == c) {
                            return true;
                          }
                        }
                        return false;
                      });
        if (heard.collision) {
          observe_outcome(policy, r, ListenOutcome::kCollision);
          continue;
        }
        if (heard.sender == net::kInvalidNode) {
          observe_outcome(policy, r, ListenOutcome::kSilence);
          continue;
        }
        // A Byzantine message decodes cleanly but announces a fake ID: the
        // policy hears the announced ID, never the real arc.
        const Reception rx = dispose_reception(
            faults, heard.sender, u, slot, setup.loss_rng(),
            config.loss_probability,
            [&policy](net::NodeId id) { return policy.admit_neighbor(id); });
        observe_outcome(policy, r, listen_outcome(rx.disposition));
        if (rx.disposition == Disposition::kFake) {
          observe_heard(policy, r, rx.announced, rx.first_fake);
        } else if (rx.disposition == Disposition::kAdmitted) {
          const bool first_time = result.state.record_reception(
              heard.sender, u, static_cast<double>(slot));
          observe_heard(policy, r, heard.sender, first_time);
          if (config.on_reception) {
            config.on_reception(slot, heard.sender, u, c);
          }
        }
      }
    }

    if (note_completion(result.state, result.complete, result.completion_slot,
                        slot, config.stop_when_complete)) {
      break;
    }
  }
  result.robustness = faults.assess(
      result.state,
      result.slots_executed == 0 ? 0 : result.slots_executed - 1);
  return result;
}

}  // namespace

SlotEngineResult run_slot_engine(const net::Network& network,
                                 const SyncPolicyFactory& factory,
                                 const SlotEngineConfig& config) {
  return run_slotted<SyncPolicy>(network, factory, config);
}

MultiRadioEngineResult run_multi_radio_engine(
    const net::Network& network, const MultiRadioPolicyFactory& factory,
    const MultiRadioEngineConfig& config) {
  M2HEW_CHECK(config.max_slots >= 1);
  return run_slotted<MultiRadioPolicy>(network, factory, config);
}

}  // namespace m2hew::sim
