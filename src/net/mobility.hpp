// Seed-derived node mobility for time-varying topologies.
//
// The random-waypoint model is the standard synthetic workload for mobile
// ad-hoc deployments (and the contact-tracing profile of ROADMAP open
// item 4): each node independently picks a waypoint uniform in the
// deployment square, a per-leg speed uniform in [speed_min, speed_max],
// walks straight toward the waypoint, optionally pauses there, and
// repeats. Time is discretized in *epochs* — the granularity at which the
// link set is recomputed (net/topology_provider.hpp); speeds are distance
// units per epoch.
//
// Determinism contract: every draw of node u comes from the dedicated
// stream derive(u, kMobilityStreamSalt) of the model's own seed tree, so
// (seed, config) fully determines every trajectory, node trajectories are
// mutually independent, and no engine or trial stream is perturbed —
// exactly the derivation discipline of the fault layer (sim/fault_plan.hpp,
// salt 0xFA17) and the async clocks (salt 0xC10C).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/types.hpp"
#include "util/rng.hpp"

namespace m2hew::net {

/// Salt for the per-node mobility streams: node u's trajectory is drawn
/// from Rng(seeds.derive(u, kMobilityStreamSalt)). Disjoint from the node
/// policy streams derive(u), the loss stream derive(N+1), the churn salt
/// 0xFA17 and the async clock salt 0xC10C.
inline constexpr std::uint64_t kMobilityStreamSalt = 0x30B1;

/// Mobility workload description. Distances share the unit-disk
/// generator's units (positions in [0, side]², links iff distance <=
/// radius); speeds are distance units per epoch.
struct MobilityConfig {
  NodeId nodes = 0;
  double side = 1.0;    ///< deployment square side
  double radius = 0.35;  ///< radio range (unit-disk link threshold)
  double speed_min = 0.0;  ///< per-leg speed lower bound, units/epoch
  double speed_max = 0.05;  ///< per-leg speed upper bound, units/epoch
  /// Maximum pause at a reached waypoint; the actual pause is drawn
  /// uniformly from {0, ..., pause_epochs} per visit. 0 = never pause.
  std::uint64_t pause_epochs = 0;
  /// Number of epochs the workload spans (>= 1). Epoch 0 is the initial
  /// placement; epoch e is the state after e advance steps.
  std::size_t epochs = 1;
};

/// The model's CHECKed preconditions. The front ends never reach them:
/// the knob table (runner/knobs.cpp) rejects the same ranges with exit
/// code 2.
void validate_mobility_config(const MobilityConfig& config);

/// The random-waypoint process itself. Exposed separately from the
/// topology provider so tests can pin trajectories (golden positions,
/// chi-squared waypoint uniformity) and recompute an epoch's link set
/// without building networks. Another mobility model only has to yield
/// per-epoch topologies for EpochTopologyProvider — see
/// docs/EXTENDING.md "Adding a mobility model".
class RandomWaypointModel {
 public:
  RandomWaypointModel(const MobilityConfig& config, std::uint64_t seed);

  /// Positions at the current epoch, one per node.
  [[nodiscard]] std::span<const Point> positions() const noexcept {
    return positions_;
  }
  [[nodiscard]] std::size_t current_epoch() const noexcept { return epoch_; }

  /// Advances every node by one epoch of movement: walk toward the
  /// waypoint at the leg's speed; on arrival draw a pause from
  /// {0..pause_epochs}, then a fresh waypoint and speed. The per-epoch
  /// displacement of a node never exceeds its current leg speed (and so
  /// never exceeds speed_max).
  void advance_epoch();

 private:
  struct NodeMotion {
    util::Rng rng;
    Point waypoint;
    double speed = 0.0;          // distance units per epoch, current leg
    std::uint64_t pause_left = 0;  // epochs left parked at the waypoint
  };

  MobilityConfig config_;
  std::size_t epoch_ = 0;
  std::vector<Point> positions_;
  std::vector<NodeMotion> motion_;
};

}  // namespace m2hew::net
