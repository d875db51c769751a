// Time-varying topology: one union network plus one live-arc bitset per
// epoch.
//
// A schedule is E >= 1 epochs over one node set and one channel
// assignment. The union network holds every arc that exists in any epoch.
// Engines are built on it: discovery bookkeeping, policies, completion
// ground truth and all per-link fault state use its arc ids. Epoch e is
// one bit per union arc, set iff the arc carries traffic during e, and
// the engines test that bit where a reception needs the arc. A
// single-epoch schedule is the static case: the union IS epoch 0's
// network, so engines take their unmasked path (topology_provider_of).
//
// A schedule is built from its per-epoch topologies: a hand-written list,
// or a random-waypoint run that recomputes the unit-disk link set at each
// epoch's positions with the bucketed cell scan (unit_disk_topology).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/channel_set.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"

namespace m2hew::net {

/// The union arcs live in one epoch, as a view of its bitset. A null view
/// has every arc live (the static path).
struct LiveArcs {
  const std::uint64_t* words = nullptr;

  [[nodiscard]] bool operator()(std::size_t arc) const noexcept {
    return words == nullptr || ((words[arc >> 6] >> (arc & 63)) & 1U) != 0;
  }
};

/// An epoch schedule. Immutable after construction, so live() and
/// union_network() are allocation-free and safe to call concurrently from
/// worker threads during trials.
class EpochTopologyProvider {
 public:
  /// `epochs[e]` is the link set of epoch e (at least one epoch, each over
  /// assignment.size() nodes). `assignment` is the per-node channel
  /// availability, shared by every epoch. The union inserts each epoch's
  /// edges() in (epoch, discovery) order, both arcs per edge; one epoch
  /// is its own union, arcs in that topology's insertion order.
  EpochTopologyProvider(std::vector<Topology> epochs,
                        std::vector<ChannelSet> assignment);

  /// Random-waypoint mobility over the unit-disk model: epoch 0 is the
  /// initial placement and every later epoch advances the model one step
  /// (net/mobility.hpp). `seed` derives the per-node trajectory streams.
  EpochTopologyProvider(const MobilityConfig& config,
                        std::vector<ChannelSet> assignment,
                        std::uint64_t seed);

  /// Number of epochs, >= 1.
  [[nodiscard]] std::size_t epoch_count() const noexcept { return epochs_; }

  /// Every arc that exists in at least one epoch.
  [[nodiscard]] const Network& union_network() const noexcept {
    return union_;
  }

  /// The union arcs live in epoch e. Simulations running past the last
  /// epoch stay on it.
  [[nodiscard]] LiveArcs live(std::size_t e) const noexcept {
    return {live_.data() + (e < epochs_ ? e : epochs_ - 1) * words_};
  }

 private:
  std::size_t epochs_;
  Network union_;
  std::size_t words_;                // bitset words per epoch
  std::vector<std::uint64_t> live_;  // epoch-major, words_ per epoch
};

}  // namespace m2hew::net
