// Downstream application: collision-free link scheduling from discovered
// neighbor tables.
//
// The paper's introduction motivates neighbor discovery as the first step
// feeding MAC/scheduling protocols ([3], [7], [8]): "many algorithms for
// solving these problems implicitly assume that all nodes know their
// one-hop neighbors". This example closes that loop: it runs Algorithm 3
// to completion, then builds a TDMA schedule purely from the *discovered*
// tables — one (slot, channel) per directed link such that every scheduled
// transmission is collision-free — and finally verifies the schedule
// against the ground-truth network.
//
//   $ ./link_scheduling
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/algorithms.hpp"
#include "runner/scenario.hpp"
#include "sim/slot_engine.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

struct ScheduledLink {
  net::NodeId from = net::kInvalidNode;
  net::NodeId to = net::kInvalidNode;
  net::ChannelId channel = net::kInvalidChannel;
  std::size_t slot = 0;
};

// Greedy first-fit coloring over (slot, channel) pairs. Two scheduled
// links conflict in a slot if they share a node (half-duplex radios) or if
// they use the same channel and one's transmitter is an in-neighbor of the
// other's receiver (interference). Only information nodes could exchange
// after discovery is used: the discovered tables and the channel spans in
// them.
[[nodiscard]] std::vector<ScheduledLink> greedy_schedule(
    const net::Network& network, const sim::DiscoveryState& state) {
  // Collect the directed links each node discovered, with their spans.
  struct Pending {
    net::NodeId from;
    net::NodeId to;
    net::ChannelSet span;
  };
  std::vector<Pending> pending;
  for (net::NodeId u = 0; u < network.node_count(); ++u) {
    for (const sim::NeighborRecord& rec : state.neighbor_table(u)) {
      pending.push_back({rec.neighbor, u, rec.common_channels});
    }
  }
  // Deterministic order: widest spans last so constrained links pick first.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.span.size() < b.span.size();
                   });

  std::vector<ScheduledLink> schedule;
  auto conflicts = [&](const Pending& link, std::size_t slot,
                       net::ChannelId channel) {
    for (const ScheduledLink& other : schedule) {
      if (other.slot != slot) continue;
      // Shared node: a radio cannot do two things in one slot.
      if (other.from == link.from || other.from == link.to ||
          other.to == link.from || other.to == link.to) {
        return true;
      }
      if (other.channel != channel) continue;
      // Same channel: transmitters must not be audible at the other
      // receiver.
      if (network.topology().has_arc(other.from, link.to) &&
          network.span(other.from, link.to).contains(channel)) {
        return true;
      }
      if (network.topology().has_arc(link.from, other.to) &&
          network.span(link.from, other.to).contains(channel)) {
        return true;
      }
    }
    return false;
  };

  for (const Pending& link : pending) {
    const auto channels = link.span.to_vector();
    bool placed = false;
    for (std::size_t slot = 0; !placed; ++slot) {
      for (const net::ChannelId channel : channels) {
        if (!conflicts(link, slot, channel)) {
          schedule.push_back({link.from, link.to, channel, slot});
          placed = true;
          break;
        }
      }
    }
  }
  return schedule;
}

// Simulates the schedule on the ground-truth network: in each slot all
// scheduled transmitters fire; every scheduled receiver must decode its
// message cleanly.
[[nodiscard]] bool verify_schedule(const net::Network& network,
                                   const std::vector<ScheduledLink>& schedule,
                                   std::size_t slot_count) {
  for (std::size_t slot = 0; slot < slot_count; ++slot) {
    for (const ScheduledLink& link : schedule) {
      if (link.slot != slot) continue;
      // The intended transmission must be deliverable...
      if (!network.span(link.from, link.to).contains(link.channel)) {
        return false;
      }
      // ...and no other transmitter in this slot may be audible at the
      // receiver on the same channel, nor may the receiver itself be busy.
      for (const ScheduledLink& other : schedule) {
        if (other.slot != slot ||
            (other.from == link.from && other.to == link.to)) {
          continue;
        }
        if (other.from == link.to || other.to == link.to ||
            other.from == link.from) {
          return false;  // node double-booked
        }
        if (other.channel == link.channel &&
            network.topology().has_arc(other.from, link.to) &&
            network.span(other.from, link.to).contains(link.channel)) {
          return false;  // interference
        }
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  // A heterogeneous unit-disk deployment.
  runner::ScenarioConfig scenario;
  scenario.topology = runner::TopologyKind::kUnitDisk;
  scenario.n = 14;
  scenario.ud_radius = 0.42;
  scenario.channels = runner::ChannelKind::kUniformRandom;
  scenario.universe = 10;
  scenario.set_size = 4;
  const net::Network network = runner::build_scenario(scenario, 17);

  std::printf("network: %s\n", runner::describe(scenario).c_str());
  std::printf("links to schedule: %zu, max per-channel degree: %zu\n\n",
              network.links().size(), network.max_channel_degree());

  // Phase 1: neighbor discovery (Algorithm 3).
  sim::SlotEngineConfig engine;
  engine.max_slots = 2'000'000;
  engine.seed = 99;
  const auto discovery =
      sim::run_slot_engine(network, core::make_algorithm3(8), engine);
  if (!discovery.complete) {
    std::printf("discovery did not complete; aborting\n");
    return 1;
  }
  std::printf("phase 1: discovery complete after %llu slots\n",
              static_cast<unsigned long long>(discovery.completion_slot + 1));

  // Phase 2: build the TDMA schedule from discovered tables only.
  const auto schedule = greedy_schedule(network, discovery.state);
  std::size_t slot_count = 0;
  for (const auto& link : schedule) {
    slot_count = std::max(slot_count, link.slot + 1);
  }
  std::printf("phase 2: scheduled %zu links into %zu TDMA slots\n",
              schedule.size(), slot_count);

  // Phase 3: verify against ground truth.
  const bool ok = verify_schedule(network, schedule, slot_count);
  std::printf("phase 3: schedule is %s\n\n",
              ok ? "collision-free (verified against ground truth)"
                 : "BROKEN");

  util::Table table({"slot", "links scheduled"});
  for (std::size_t slot = 0; slot < slot_count; ++slot) {
    std::size_t in_slot = 0;
    for (const auto& link : schedule) {
      if (link.slot == slot) ++in_slot;
    }
    table.row().cell(slot).cell(in_slot);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nlower bound on slots: a node with k discovered links needs >= k "
      "slots;\nhere the busiest node has %zu links.\n",
      [&] {
        std::vector<std::size_t> load(network.node_count(), 0);
        for (const auto& link : schedule) {
          ++load[link.from];
          ++load[link.to];
        }
        return *std::max_element(load.begin(), load.end());
      }());
  return ok ? 0 : 1;
}
