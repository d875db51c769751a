// Scenario: a reproducible recipe for generating M²HeW networks. Benches,
// tests and examples all build their workloads through this one module so
// that a scenario is describable in EXPERIMENTS.md by its config alone.
#pragma once

#include <memory>
#include <string>

#include "net/network.hpp"
#include "net/topology_provider.hpp"
#include "net/types.hpp"
#include "sim/engine_common.hpp"

namespace m2hew::runner {

enum class TopologyKind {
  kLine,
  kRing,
  kGrid,
  kStar,
  kClique,
  kErdosRenyi,
  kUnitDisk,
  kWattsStrogatz,
  kBarabasiAlbert,
};

/// §V extension (c): per-arc channel usability model.
enum class PropagationKind {
  kFull,        ///< every channel propagates on every arc (base model)
  kRandomMask,  ///< i.i.d. per-(pair, channel) keep with prob `prop_keep`
  kLowpass,     ///< only low channels propagate between distant node ids
};

enum class ChannelKind {
  kHomogeneous,     ///< all nodes share {0..set_size-1}; ρ = 1
  kUniformRandom,   ///< per-node uniform subsets of size set_size
  kVariableRandom,  ///< per-node subsets, sizes uniform in [min, max]
  kChainOverlap,    ///< exact-ρ block construction (line topologies)
  kPrimaryUsers,    ///< CR spectrum field (requires kUnitDisk topology)
};

struct ScenarioConfig {
  TopologyKind topology = TopologyKind::kClique;
  net::NodeId n = 8;

  // Topology-specific knobs.
  net::NodeId grid_rows = 0;       ///< kGrid (grid_rows × n/grid_rows)
  double er_edge_probability = 0.3;  ///< kErdosRenyi
  double ud_side = 1.0;            ///< kUnitDisk deployment square side
  double ud_radius = 0.35;         ///< kUnitDisk radio range
  net::NodeId ws_k = 4;            ///< kWattsStrogatz lattice degree (even)
  double ws_beta = 0.2;            ///< kWattsStrogatz rewiring probability
  net::NodeId ba_m = 2;            ///< kBarabasiAlbert attachments per node

  /// §V extension (a): probability that an undirected edge loses one
  /// direction (0 = the paper's symmetric base model).
  double asymmetric_drop = 0.0;

  ChannelKind channels = ChannelKind::kHomogeneous;
  net::ChannelId universe = 8;
  net::ChannelId set_size = 4;     ///< kHomogeneous / kUniformRandom / chain S
  net::ChannelId min_size = 2;     ///< kVariableRandom
  net::ChannelId max_size = 6;     ///< kVariableRandom
  net::ChannelId chain_overlap = 2;  ///< kChainOverlap: |span| = overlap
  std::size_t pu_count = 12;       ///< kPrimaryUsers
  double pu_min_radius = 0.2;      ///< kPrimaryUsers
  double pu_max_radius = 0.5;      ///< kPrimaryUsers

  /// For random channel kinds: retry generation until every edge has a
  /// non-empty span (so ground truth covers the whole topology). Checked
  /// before asymmetrization and propagation masking.
  bool require_nonempty_spans = true;

  // §V extension (c): propagation model.
  PropagationKind propagation = PropagationKind::kFull;
  double prop_keep = 0.7;  ///< kRandomMask keep probability
};

/// Builds a network from the recipe; a given (config, seed) pair always
/// yields the same network.
[[nodiscard]] net::Network build_scenario(const ScenarioConfig& config,
                                          std::uint64_t seed);

/// Mobility workload riding on a scenario (ROADMAP open item 4): random
/// waypoint over the scenario's unit-disk square, link set recomputed
/// every `epoch_slots` slots, plus an optional duty-cycle schedule for
/// the policies. Requires TopologyKind::kUnitDisk and a
/// position-independent channel kind (homogeneous / uniform-random /
/// variable-random) — build_mobility_provider CHECKs both.
struct MobilitySpec {
  bool enabled = false;
  std::size_t epochs = 8;           ///< epochs in the topology schedule
  std::uint64_t epoch_slots = 500;  ///< slots per epoch
  double speed_min = 0.0;           ///< units per epoch
  double speed_max = 0.05;          ///< units per epoch
  std::uint64_t pause_epochs = 0;   ///< max pause at a reached waypoint
  /// Duty cycle: nodes run the policy during the first `duty_on` slots of
  /// every `duty_period` window and sleep otherwise. 1/1 = always on.
  std::uint64_t duty_on = 1;
  std::uint64_t duty_period = 1;
};

/// Builds the epoch topology provider for a mobile scenario: waypoint
/// trajectories from (seed, net::kMobilityStreamSalt) streams, one channel
/// assignment drawn exactly like build_scenario's (same derive(0xBEEF)
/// stream), per-epoch unit-disk link sets. Engines must then be run on
/// provider->union_network() with config.topology/epoch_length set.
/// Unlike build_scenario there is no nonempty-span retry: an arc whose
/// span is empty simply never becomes a discovery link, in any epoch.
[[nodiscard]] std::unique_ptr<net::EpochTopologyProvider>
build_mobility_provider(const ScenarioConfig& config,
                        const MobilitySpec& mobility, std::uint64_t seed);

/// One-line human-readable description for bench output.
[[nodiscard]] std::string describe(const ScenarioConfig& config);

/// Same, but also reporting the engine knobs that change the channel
/// model — message loss, variable start schedules, dynamic interference
/// and the reference reception path — so a bench line fully identifies
/// its workload. Overloaded for the slotted and async time axes.
[[nodiscard]] std::string describe(
    const ScenarioConfig& config,
    const sim::EngineCommon<std::uint64_t>& engine);
[[nodiscard]] std::string describe(const ScenarioConfig& config,
                                   const sim::EngineCommon<double>& engine);

enum class SyncKernel;  // runner/trials.hpp

/// Same again for slotted runs, additionally echoing the execution knobs:
/// the `kernel` knob when it is not the default (`kernel=soa`) and, when
/// nonzero, the process-worker fan-out of a daemon-sharded run
/// (`workers=K`). Neither knob changes results — both are pinned
/// bit-identical by the equivalence suites — but a report line should
/// repeat what its run was given.
[[nodiscard]] std::string describe(
    const ScenarioConfig& config,
    const sim::EngineCommon<std::uint64_t>& engine, SyncKernel kernel,
    std::size_t process_workers = 0);

/// Mobility suffix for report lines (" mobility=rwp(...) duty=a/b");
/// empty when the spec is disabled, so callers append unconditionally.
[[nodiscard]] std::string describe_mobility(const MobilitySpec& mobility);

}  // namespace m2hew::runner
