#include "sim/soa_kernel.hpp"

#include <cstddef>

#include "sim/engine_common.hpp"
#include "sim/trial_setup.hpp"
#include "util/check.hpp"

namespace m2hew::sim {

bool SoaSlotKernelResult::is_covered(net::Link link) const {
  M2HEW_CHECK(link.from < network->node_count() &&
              link.to < network->node_count());
  const std::size_t arc = network->in_arc(link.from, link.to);
  return arc != net::Network::kNoArc && covered[arc] != 0;
}

double SoaSlotKernelResult::first_coverage_slot(net::Link link) const {
  M2HEW_CHECK_MSG(is_covered(link), "link not covered yet");
  return first_slot[network->in_arc(link.from, link.to)];
}

SoaSlotKernel::SoaSlotKernel(const net::Network& network)
    : network_(&network), medium_(network, network.node_count()) {
  const net::NodeId n = network.node_count();
  avail_off_.reserve(static_cast<std::size_t>(n) + 1);
  avail_off_.push_back(0);
  for (net::NodeId u = 0; u < n; ++u) {
    const auto members = network.available(u).to_vector();
    avail_flat_.insert(avail_flat_.end(), members.begin(), members.end());
    avail_off_.push_back(avail_flat_.size());
  }
  listen_.resize(n);
  tx_.reserve(n);
}

SoaSlotKernelResult SoaSlotKernel::run(const SoaPolicyTable& table,
                                       const SlotEngineConfig& config) {
  const net::NodeId n = network_->node_count();
  validate_engine_common(config, n);
  M2HEW_CHECK_MSG(table.valid(n), "malformed SoA policy table");

  TrialStreams streams(n, config.seed);
  FaultState<std::uint64_t> faults(*network_, streams.seeds(), config.faults);

  const Interference<std::uint64_t> jammed{config, faults};
  const bool has_interference = jammed.any();

  SoaSlotKernelResult result;
  result.network = network_;
  result.activity.assign(n, RadioActivity{});
  result.total_links = network_->links().size();
  result.covered.assign(network_->arc_count(), 0);
  result.first_slot.assign(network_->arc_count(), -1.0);

  // Per-trial policy state: every node starts one fresh policy. Arrays
  // the table's law never reads stay empty.
  const bool hop = table.channel_law == SoaChannelLaw::kConsistentHop;
  slot_in_stage_.assign(table.staged ? n : 0, 0u);
  stage_slots_.assign(table.staged ? n : 0, table.initial_stage_slots);
  estimate_.assign(table.escalating ? n : 0,
                   static_cast<std::uint64_t>(table.initial_estimate));
  hop_clock_.assign(hop ? n : 0, std::uint64_t{0});

  const unsigned p_stride = SoaPolicyTable::kMaxStageSlot + 1;
  const double* const p_staged = table.p_staged.data();
  const double* const p_constant = table.p_constant.data();

  // Time-varying topology: the CSR/coverage stay on the union network,
  // whose arc ids the schedule's live bits index. The static path's view
  // has every arc live.
  const net::EpochTopologyProvider* provider =
      topology_provider_of(config, *network_);

  // Steady state below this line performs no allocation: all arrays are
  // owned by the kernel or the result and sized above.
  for (std::uint64_t slot = 0; slot < config.max_slots; ++slot) {
    ++result.slots_executed;
    const net::LiveArcs live =
        live_arcs_at(provider, config.epoch_length, slot);

    // Action pass, one visit per node: draw the action, let a transmitter
    // sensing an active PU on its channel vacate (radio idle this slot),
    // tally the mode from the node's start slot on, and record listeners
    // and transmitters. Draw order is identical to the virtual policies:
    // under the uniform channel law one uniform channel pick then one
    // Bernoulli coin; under the consistent-hop law the channel is a table
    // lookup and only the coin draws (the staged/constant probabilities
    // are always in (0, 1/2], so the coin always draws).
    tx_.clear();
    for (net::NodeId u = 0; u < n; ++u) {
      listen_[u] = net::kInvalidChannel;
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        continue;
      }
      SlotAction action;
      if (faults.scripted(u)) {
        // Adversary roles replace the policy table entry, with draws
        // matching the slot engine's bit-identically.
        action = faults.adversary_action(u, streams.rng(u));
      } else {
        if (faults.consume_reset(u, slot)) {
          if (table.staged) {
            slot_in_stage_[u] = 0;
            stage_slots_[u] = table.initial_stage_slots;
          }
          if (table.escalating) {
            estimate_[u] = static_cast<std::uint64_t>(table.initial_estimate);
          }
          if (hop) hop_clock_[u] = 0;
        }
        util::Rng& rng = streams.rng(u);
        const std::size_t off = avail_off_[u];
        const std::size_t len = avail_off_[u + 1] - off;
        if (hop) {
          const std::size_t w =
              static_cast<std::size_t>(hop_clock_[u]++ % table.hop_period);
          action.channel =
              table.hop_map[static_cast<std::size_t>(u) * table.hop_period +
                            w];
        } else {
          action.channel =
              avail_flat_[off + static_cast<std::size_t>(rng.uniform(len))];
        }
        double p;
        if (table.staged) {
          const unsigned i = slot_in_stage_[u] + 1;  // paper's index, 1-based
          p = p_staged[len * p_stride + i];
          if (table.escalating) {
            if (++slot_in_stage_[u] == stage_slots_[u]) {
              slot_in_stage_[u] = 0;
              if (estimate_[u] < SoaPolicyTable::kEstimateCap) {
                estimate_[u] = table.escalate_double ? estimate_[u] * 2
                                                     : estimate_[u] + 1;
              }
              stage_slots_[u] = table.stage_length(
                  static_cast<std::size_t>(estimate_[u]));
            }
          } else {
            slot_in_stage_[u] = (slot_in_stage_[u] + 1) % stage_slots_[u];
          }
        } else {
          p = p_constant[u];
        }
        action.mode = rng.bernoulli(p) ? Mode::kTransmit : Mode::kReceive;
      }
      if (action.mode == Mode::kTransmit && has_interference &&
          jammed(slot, u, action.channel)) {
        action.mode = Mode::kQuiet;
      }
      count_mode(result.activity[u], action.mode);
      if (action.mode == Mode::kTransmit) {
        tx_.push_back({u, action.channel});
      } else if (action.mode == Mode::kReceive) {
        listen_[u] = action.channel;
      }
    }

    // Scatter the transmitters, then resolve the hit listeners in
    // ascending id order: the oracle's listener order, in which loss
    // draws, fault bookkeeping and on_reception calls must come for the
    // kernel to stay bit-identical to run_slot_engine.
    medium_.clear();
    for (const Transmission& t : tx_) {
      medium_.scatter(live, t.node, t.channel,
                      [this](net::NodeId to, net::ChannelId c) {
                        return listen_[to] == c ? to : SlotMedium::kNoKey;
                      });
    }
    medium_.for_each_hit([&](net::NodeId u,
                             const SlotMedium::Resolution& heard) {
      if (heard.collision) return;
      const net::ChannelId c = listen_[u];
      if (has_interference && jammed(slot, u, c)) return;
      // The shared disposition chain. The SoA path has no policy
      // objects, so nothing is refused (equivalence legs run untrusted);
      // a Byzantine message lands in the fault layer's fake table, never
      // in the coverage arrays.
      if (dispose_reception(faults, heard.sender, u, heard.arc, slot,
                            streams.loss_rng(), config.loss_probability,
                            [](net::NodeId) { return true; })
              .disposition != Disposition::kAdmitted) {
        return;
      }
      ++result.receptions;
      if (result.covered[heard.arc] == 0) {
        result.covered[heard.arc] = 1;
        result.first_slot[heard.arc] = static_cast<double>(slot);
        ++result.covered_links;
      }
      if (config.on_reception) config.on_reception(slot, heard.sender, u, c);
    });

    if (!result.complete && result.covered_links == result.total_links) {
      result.complete = true;
      result.completion_slot = slot;
      if (config.stop_when_complete) break;
    }
  }

  result.robustness = faults.assess(
      result.covered,
      result.slots_executed == 0 ? 0 : result.slots_executed - 1);
  return result;
}

SoaSlotKernelResult run_soa_slot_kernel(const net::Network& network,
                                        const SoaPolicyTable& table,
                                        const SlotEngineConfig& config) {
  SoaSlotKernel kernel(network);
  return kernel.run(table, config);
}

}  // namespace m2hew::sim
