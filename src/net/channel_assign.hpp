// Channel-availability generators: produce the per-node available channel
// sets A(u) of §II under controllable heterogeneity.
//
// The running time of the paper's algorithms is inversely proportional to
// the minimum span-ratio ρ; these generators let benches sweep ρ precisely
// (chain_overlap) or statistically (uniform_random, primary-user model in
// primary_user.hpp).
#pragma once

#include <vector>

#include "net/channel_set.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "util/rng.hpp"

namespace m2hew::net {

using ChannelAssignment = std::vector<ChannelSet>;

/// All n nodes share the identical set {0..set_size-1} out of a universe of
/// `universe` channels. ρ = 1 (fully homogeneous).
[[nodiscard]] ChannelAssignment homogeneous_assignment(NodeId n,
                                                       ChannelId universe,
                                                       ChannelId set_size);

/// Each node independently picks a uniformly random subset of exactly
/// `per_node_size` channels from the universe.
[[nodiscard]] ChannelAssignment uniform_random_assignment(
    NodeId n, ChannelId universe, ChannelId per_node_size, util::Rng& rng);

/// Each node picks a uniform random size in [min_size, max_size] and then a
/// uniform random subset of that size. Models hardware variation in
/// transceiver capability.
[[nodiscard]] ChannelAssignment variable_size_random_assignment(
    NodeId n, ChannelId universe, ChannelId min_size, ChannelId max_size,
    util::Rng& rng);

/// Exact-ρ construction for path-shaped topologies: node i receives the
/// contiguous channel block [i·(s−k), i·(s−k)+s). Adjacent nodes overlap in
/// exactly k channels, so every link of a line topology has span-ratio k/s
/// and the network has ρ = k/s exactly. Requires 1 <= k <= s.
struct ChainOverlapResult {
  ChannelAssignment assignment;
  ChannelId universe_size = 0;
};
[[nodiscard]] ChainOverlapResult chain_overlap_assignment(NodeId n,
                                                          ChannelId set_size,
                                                          ChannelId overlap);

/// Retries `generate` until every topology edge has a non-empty span (so the
/// communication graph and the discovery ground truth coincide), up to
/// `attempts` times; returns the last attempt regardless. Each edge fails
/// independently, so only small graphs are likely to pass: at ρ = 0.25
/// with |U| = 10 and |A| = 4 (an empty span has probability 1/14), a graph
/// of more than about 100 edges usually fails every attempt and gets the
/// last draw.
template <typename Generate>
[[nodiscard]] ChannelAssignment generate_with_nonempty_spans(
    const Topology& topology, int attempts, Generate&& generate) {
  const auto edges = topology.edges();
  ChannelAssignment assignment;
  for (int k = 0; k < attempts; ++k) {
    assignment = generate();
    bool ok = true;
    for (const auto& [u, v] : edges) {
      if (assignment[u].intersection_size(assignment[v]) == 0) {
        ok = false;
        break;
      }
    }
    if (ok) return assignment;
  }
  return assignment;
}

}  // namespace m2hew::net
