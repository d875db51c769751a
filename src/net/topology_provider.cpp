#include "net/topology_provider.hpp"

#include <unordered_set>
#include <utility>

#include "net/topology_gen.hpp"
#include "util/check.hpp"

namespace m2hew::net {

namespace {

// The union network of a schedule. One epoch is its own union (its
// topology is moved in); otherwise every edge seen in any epoch is
// inserted in (epoch, discovery) order so the arc list is reproducible.
Network make_union(std::vector<Topology>& epochs,
                   std::vector<ChannelSet> assignment) {
  M2HEW_CHECK_MSG(!epochs.empty(), "a schedule needs at least one epoch");
  for (const Topology& t : epochs) {
    M2HEW_CHECK_MSG(t.node_count() == assignment.size(),
                    "channel assignment must cover every node of every epoch");
  }
  if (epochs.size() == 1) {
    return {std::move(epochs.front()), std::move(assignment)};
  }
  Topology union_topology(epochs.front().node_count());
  std::unordered_set<std::uint64_t> seen;
  for (const Topology& t : epochs) {
    for (const auto& [a, b] : t.edges()) {
      if (seen.insert((static_cast<std::uint64_t>(a) << 32) | b).second) {
        union_topology.add_edge(a, b);
      }
    }
  }
  return {std::move(union_topology), std::move(assignment)};
}

std::vector<Topology> random_waypoint_epochs(const MobilityConfig& config,
                                             std::uint64_t seed) {
  RandomWaypointModel model(config, seed);
  std::vector<Topology> epochs;
  epochs.reserve(config.epochs);
  for (std::size_t e = 0; e < config.epochs; ++e) {
    if (e > 0) model.advance_epoch();
    epochs.push_back(
        unit_disk_topology(model.positions(), config.side, config.radius));
  }
  return epochs;
}

}  // namespace

EpochTopologyProvider::EpochTopologyProvider(std::vector<Topology> epochs,
                                             std::vector<ChannelSet> assignment)
    : epochs_(epochs.size()),
      union_(make_union(epochs, std::move(assignment))),
      words_((union_.arc_count() + 63) / 64),
      live_(epochs_ * words_, 0) {
  for (std::size_t e = 0; e < epochs_; ++e) {
    // A single epoch's topology now lives inside the union.
    const Topology& t = epochs_ == 1 ? union_.topology() : epochs[e];
    std::uint64_t* const bits = live_.data() + e * words_;
    for (const auto& [from, to] : t.arcs()) {
      const std::size_t arc = union_.in_arc(from, to);
      bits[arc >> 6] |= std::uint64_t{1} << (arc & 63);
    }
  }
}

EpochTopologyProvider::EpochTopologyProvider(const MobilityConfig& config,
                                             std::vector<ChannelSet> assignment,
                                             std::uint64_t seed)
    : EpochTopologyProvider(random_waypoint_epochs(config, seed),
                            std::move(assignment)) {}

}  // namespace m2hew::net
