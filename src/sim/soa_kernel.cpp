#include "sim/soa_kernel.hpp"

#include <algorithm>
#include <cstring>

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
    : network_(&network),
      n_(network.node_count()),
      span_stride_(net::ChannelSet::word_count(network.universe_size())),
      total_links_(network.links().size()) {
  avail_off_.reserve(static_cast<std::size_t>(n_) + 1);
  avail_off_.push_back(0);
  for (net::NodeId u = 0; u < n_; ++u) {
    const auto members = network.available(u).to_vector();
    avail_flat_.insert(avail_flat_.end(), members.begin(), members.end());
    avail_off_.push_back(avail_flat_.size());
  }

  in_off_.reserve(static_cast<std::size_t>(n_) + 1);
  in_off_.push_back(0);
  for (net::NodeId u = 0; u < n_; ++u) {
    for (const net::Network::InLink& in : network.in_links(u)) {
      in_src_.push_back(in.from);
      const auto words = in.span->words();
      span_words_.insert(span_words_.end(), words.begin(), words.end());
      // Narrow universes can yield zero-word spans; keep the stride.
      span_words_.resize(in_src_.size() * span_stride_, 0);
    }
    in_off_.push_back(in_src_.size());
  }

  mode_.resize(n_);
  channel_.resize(n_);
  slot_in_stage_.resize(n_);
  stage_slots_.resize(n_);
  estimate_.resize(n_);
  hop_clock_.resize(n_);
}

SoaSlotKernelResult SoaSlotKernel::run(const SoaPolicyTable& table,
                                       const SlotEngineConfig& config) {
  const net::NodeId n = n_;
  validate_engine_common(config, n);
  M2HEW_CHECK_MSG(table.valid(n), "malformed SoA policy table");
  for (net::NodeId u = 0; u < n; ++u) {
    M2HEW_CHECK_MSG(avail_off_[u + 1] > avail_off_[u],
                    "node needs a non-empty channel set");
  }

  TrialStreams streams(n, config.seed);
  FaultState<std::uint64_t> faults(*network_, streams.seeds(), config.faults);

  const Interference<std::uint64_t> jammed{config, faults};
  const bool has_interference = jammed.any();

  SoaSlotKernelResult result;
  result.network = network_;
  result.activity.assign(n, RadioActivity{});
  result.total_links = total_links_;
  result.covered.assign(in_src_.size(), 0);
  result.first_slot.assign(in_src_.size(), -1.0);

  // Per-trial policy state: every node starts one fresh policy.
  std::fill(slot_in_stage_.begin(), slot_in_stage_.end(), 0u);
  std::fill(stage_slots_.begin(), stage_slots_.end(),
            table.initial_stage_slots);
  std::fill(estimate_.begin(), estimate_.end(),
            static_cast<std::uint64_t>(table.initial_estimate));
  std::fill(hop_clock_.begin(), hop_clock_.end(), std::uint64_t{0});

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

    // Action pass: identical draw order to the virtual policies — under
    // the uniform channel law one uniform channel pick then one Bernoulli
    // coin; under the consistent-hop law the channel is a table lookup
    // and only the coin draws (the staged/constant probabilities are
    // always in (0, 1/2], so the coin always draws).
    for (net::NodeId u = 0; u < n; ++u) {
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        mode_[u] = Mode::kQuiet;
        continue;
      }
      // Adversary roles replace the policy table entry, with draws
      // matching the slot engine's bit-identically.
      if (faults.scripted(u)) {
        const SlotAction action = faults.adversary_action(u, streams.rng(u));
        mode_[u] = action.mode;
        channel_[u] = action.channel;
        continue;
      }
      if (faults.consume_reset(u, slot)) {
        slot_in_stage_[u] = 0;
        stage_slots_[u] = table.initial_stage_slots;
        estimate_[u] = static_cast<std::uint64_t>(table.initial_estimate);
        hop_clock_[u] = 0;
      }
      util::Rng& rng = streams.rng(u);
      const std::size_t off = avail_off_[u];
      const std::size_t len = avail_off_[u + 1] - off;
      if (table.channel_law == SoaChannelLaw::kConsistentHop) {
        const std::size_t w =
            static_cast<std::size_t>(hop_clock_[u]++ % table.hop_period);
        channel_[u] =
            table.hop_map[static_cast<std::size_t>(u) * table.hop_period + w];
      } else {
        channel_[u] =
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
              estimate_[u] =
                  table.escalate_double ? estimate_[u] * 2 : estimate_[u] + 1;
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
      mode_[u] = rng.bernoulli(p) ? Mode::kTransmit : Mode::kReceive;
    }

    // Interference suppression: a transmitter sensing an active PU on its
    // chosen channel vacates (radio idle this slot).
    if (has_interference) {
      for (net::NodeId u = 0; u < n; ++u) {
        if (mode_[u] == Mode::kTransmit && jammed(slot, u, channel_[u])) {
          mode_[u] = Mode::kQuiet;
        }
      }
    }

    // Activity accounting from each node's start slot on.
    for (net::NodeId u = 0; u < n; ++u) {
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        continue;
      }
      count_mode(result.activity[u], mode_[u]);
    }

    // Reception resolution, in listener order. The flat in-CSR scan is the
    // reference resolution (unique in-neighbor transmitting on c whose
    // span carries c), with the span test as one word probe.
    for (net::NodeId u = 0; u < n; ++u) {
      if (mode_[u] != Mode::kReceive) continue;
      const net::ChannelId c = channel_[u];
      if (has_interference && jammed(slot, u, c)) continue;

      const std::size_t word = c >> 6;
      const std::uint64_t bit = 1ULL << (c & 63);
      net::NodeId sender = net::kInvalidNode;
      std::size_t sender_arc = 0;
      bool collision = false;
      const std::size_t arcs_end = in_off_[u + 1];
      for (std::size_t arc = in_off_[u]; arc < arcs_end; ++arc) {
        const net::NodeId v = in_src_[arc];
        if (mode_[v] != Mode::kTransmit || channel_[v] != c) continue;
        if (!live(arc)) continue;
        if ((span_words_[arc * span_stride_ + word] & bit) == 0) continue;
        if (sender != net::kInvalidNode) {
          collision = true;
          break;
        }
        sender = v;
        sender_arc = arc;
      }
      if (collision || sender == net::kInvalidNode) continue;
      // The shared disposition chain. The SoA path has no policy objects,
      // so nothing is refused (equivalence legs run untrusted); a Byzantine
      // message lands in the fault layer's fake table, never in the
      // coverage arrays.
      if (dispose_reception(faults, sender, u, sender_arc, slot,
                            streams.loss_rng(), config.loss_probability,
                            [](net::NodeId) { return true; })
              .disposition != Disposition::kAdmitted) {
        continue;
      }
      ++result.receptions;
      if (result.covered[sender_arc] == 0) {
        result.covered[sender_arc] = 1;
        result.first_slot[sender_arc] = static_cast<double>(slot);
        ++result.covered_links;
      }
      if (config.on_reception) config.on_reception(slot, sender, u, c);
    }

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
