#include "runner/scenario.hpp"

#include <algorithm>
#include <utility>

#include "net/channel_assign.hpp"
#include "net/primary_user.hpp"
#include "net/propagation.hpp"
#include "net/topology_gen.hpp"
#include "runner/knobs.hpp"
#include "runner/trials.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace m2hew::runner {

namespace {

struct BuiltTopology {
  net::Topology topology;
  std::vector<net::Point> positions;  // empty unless geometric
};

[[nodiscard]] BuiltTopology build_topology(const ScenarioConfig& c,
                                           util::Rng& rng) {
  switch (c.topology) {
    case TopologyKind::kLine:
      return {net::make_line(c.n), {}};
    case TopologyKind::kRing:
      return {net::make_ring(c.n), {}};
    case TopologyKind::kGrid: {
      const net::NodeId rows = c.grid_rows != 0 ? c.grid_rows : 2;
      M2HEW_CHECK_MSG(c.n % rows == 0, "grid: n must be divisible by rows");
      return {net::make_grid(rows, c.n / rows), {}};
    }
    case TopologyKind::kStar:
      return {net::make_star(c.n), {}};
    case TopologyKind::kClique:
      return {net::make_clique(c.n), {}};
    case TopologyKind::kErdosRenyi:
      return {net::make_erdos_renyi(c.n, c.er_edge_probability, rng), {}};
    case TopologyKind::kUnitDisk: {
      auto g = net::make_connected_unit_disk(c.n, c.ud_side, c.ud_radius, rng);
      return {std::move(g.topology), std::move(g.positions)};
    }
    case TopologyKind::kWattsStrogatz:
      return {net::make_watts_strogatz(c.n, c.ws_k, c.ws_beta, rng), {}};
    case TopologyKind::kBarabasiAlbert:
      return {net::make_barabasi_albert(c.n, c.ba_m, rng), {}};
  }
  M2HEW_CHECK_MSG(false, "unknown topology kind");
  return {};
}

[[nodiscard]] net::ChannelAssignment build_channels(
    const ScenarioConfig& c, const BuiltTopology& built, util::Rng& rng) {
  switch (c.channels) {
    case ChannelKind::kHomogeneous:
      return net::homogeneous_assignment(c.n, c.universe, c.set_size);
    case ChannelKind::kUniformRandom: {
      auto gen = [&] {
        return net::uniform_random_assignment(c.n, c.universe, c.set_size,
                                              rng);
      };
      if (c.require_nonempty_spans) {
        return net::generate_with_nonempty_spans(built.topology, 100, gen);
      }
      return gen();
    }
    case ChannelKind::kVariableRandom: {
      auto gen = [&] {
        return net::variable_size_random_assignment(c.n, c.universe,
                                                    c.min_size, c.max_size,
                                                    rng);
      };
      if (c.require_nonempty_spans) {
        return net::generate_with_nonempty_spans(built.topology, 100, gen);
      }
      return gen();
    }
    case ChannelKind::kChainOverlap:
      return net::chain_overlap_assignment(c.n, c.set_size, c.chain_overlap)
          .assignment;
    case ChannelKind::kPrimaryUsers: {
      M2HEW_CHECK_MSG(!built.positions.empty(),
                      "primary-user channels need a geometric topology");
      for (int attempt = 0; attempt < 100; ++attempt) {
        const auto field = net::PrimaryUserField::random(
            c.universe, c.pu_count, c.ud_side, c.pu_min_radius,
            c.pu_max_radius, rng);
        auto assignment = field.assignment_for(built.positions);
        // Reject fields that silence a node completely, and optionally
        // fields that break an edge's span.
        bool ok = true;
        for (const auto& a : assignment) {
          if (a.empty()) {
            ok = false;
            break;
          }
        }
        if (ok && c.require_nonempty_spans) {
          for (const auto& [u, v] : built.topology.edges()) {
            if (assignment[u].intersection_size(assignment[v]) == 0) {
              ok = false;
              break;
            }
          }
        }
        if (ok) return assignment;
      }
      M2HEW_CHECK_MSG(false,
                      "primary-user field rejected 100 times; loosen config");
      return {};
    }
  }
  M2HEW_CHECK_MSG(false, "unknown channel kind");
  return {};
}

}  // namespace

net::Network build_scenario(const ScenarioConfig& config, std::uint64_t seed) {
  M2HEW_CHECK(config.n >= 1);
  if (config.channels == ChannelKind::kChainOverlap) {
    M2HEW_CHECK_MSG(config.topology == TopologyKind::kLine,
                    "chain overlap is exact only on line topologies");
  }
  util::Rng rng(util::SeedSequence(seed).derive(0xBEEF));
  BuiltTopology built = build_topology(config, rng);
  net::ChannelAssignment assignment = build_channels(config, built, rng);

  net::Topology topology = std::move(built.topology);
  if (config.asymmetric_drop > 0.0) {
    topology = net::make_asymmetric(topology, config.asymmetric_drop, rng);
  }

  const net::ChannelId universe = assignment.front().universe_size();
  switch (config.propagation) {
    case PropagationKind::kFull:
      return net::Network(std::move(topology), std::move(assignment));
    case PropagationKind::kRandomMask:
      return net::Network(std::move(topology), std::move(assignment),
                          net::random_propagation_filter(
                              universe, config.prop_keep,
                              util::SeedSequence(seed).derive(0xF17E)));
    case PropagationKind::kLowpass:
      return net::Network(std::move(topology), std::move(assignment),
                          net::distance_lowpass_filter(universe, config.n));
  }
  M2HEW_CHECK_MSG(false, "unknown propagation kind");
  return net::Network(std::move(topology), std::move(assignment));
}

std::unique_ptr<net::EpochTopologyProvider> build_mobility_provider(
    const ScenarioConfig& config, const MobilitySpec& mobility,
    std::uint64_t seed) {
  M2HEW_CHECK_MSG(mobility.enabled, "mobility spec is disabled");
  M2HEW_CHECK_MSG(config.topology == TopologyKind::kUnitDisk,
                  "mobility needs a unit-disk scenario");
  M2HEW_CHECK_MSG(config.channels == ChannelKind::kHomogeneous ||
                      config.channels == ChannelKind::kUniformRandom ||
                      config.channels == ChannelKind::kVariableRandom,
                  "mobility needs a position-independent channel kind");
  M2HEW_CHECK(mobility.epoch_slots >= 1);
  M2HEW_CHECK_MSG(
      mobility.duty_on >= 1 && mobility.duty_on <= mobility.duty_period,
      "need 1 <= duty_on <= duty_period");

  // Same assignment stream as build_scenario (derive(0xBEEF)); positions
  // come from the mobility model, so the topology draw is skipped, and
  // there is no topology to retry nonempty spans against.
  util::Rng rng(util::SeedSequence(seed).derive(0xBEEF));
  ScenarioConfig channels_only = config;
  channels_only.require_nonempty_spans = false;
  net::ChannelAssignment assignment =
      build_channels(channels_only, BuiltTopology{}, rng);

  net::MobilityConfig mc;
  mc.nodes = config.n;
  mc.side = config.ud_side;
  mc.radius = config.ud_radius;
  mc.speed_min = mobility.speed_min;
  mc.speed_max = mobility.speed_max;
  mc.pause_epochs = mobility.pause_epochs;
  mc.epochs = mobility.epochs;
  return std::make_unique<net::EpochTopologyProvider>(
      mc, std::move(assignment), seed);
}

std::string describe_mobility(const MobilitySpec& mobility) {
  if (!mobility.enabled) return "";
  std::string text =
      " mobility=rwp(epochs=" + std::to_string(mobility.epochs) +
      ",epoch_slots=" + std::to_string(mobility.epoch_slots) +
      ",speed=" + std::to_string(mobility.speed_min) + ".." +
      std::to_string(mobility.speed_max);
  if (mobility.pause_epochs > 0) {
    text += ",pause<=" + std::to_string(mobility.pause_epochs);
  }
  text += ")";
  if (mobility.duty_period > mobility.duty_on) {
    text += " duty=" + std::to_string(mobility.duty_on) + "/" +
            std::to_string(mobility.duty_period);
  }
  return text;
}

std::string describe(const ScenarioConfig& c) {
  std::string topo(name_of(c.topology));
  switch (c.topology) {
    case TopologyKind::kErdosRenyi:
      topo += "(p=" + std::to_string(c.er_edge_probability) + ")";
      break;
    case TopologyKind::kUnitDisk:
      topo += "(r=" + std::to_string(c.ud_radius) + ")";
      break;
    case TopologyKind::kWattsStrogatz:
      topo += "(k=" + std::to_string(c.ws_k) +
              ",beta=" + std::to_string(c.ws_beta) + ")";
      break;
    case TopologyKind::kBarabasiAlbert:
      topo += "(m=" + std::to_string(c.ba_m) + ")";
      break;
    default:
      break;
  }
  auto chan = [&]() -> std::string {
    switch (c.channels) {
      case ChannelKind::kHomogeneous:
        return "homogeneous";
      case ChannelKind::kUniformRandom:
        return "uniform-random";
      case ChannelKind::kVariableRandom:
        return "variable-random";
      case ChannelKind::kChainOverlap:
        return "chain-overlap(k=" + std::to_string(c.chain_overlap) + ")";
      case ChannelKind::kPrimaryUsers:
        return "primary-users(" + std::to_string(c.pu_count) + ")";
    }
    return "?";
  }();
  std::string text = topo + " n=" + std::to_string(c.n) + " " + chan +
                     " |U|=" + std::to_string(c.universe) +
                     " |A|=" + std::to_string(c.set_size);
  if (c.asymmetric_drop > 0.0) {
    text += " asym=" + std::to_string(c.asymmetric_drop);
  }
  if (c.propagation == PropagationKind::kRandomMask) {
    text += " prop=random(" + std::to_string(c.prop_keep) + ")";
  } else if (c.propagation == PropagationKind::kLowpass) {
    text += " prop=lowpass";
  }
  return text;
}

namespace {

template <typename Time>
[[nodiscard]] std::string describe_engine_knobs(
    const sim::EngineCommon<Time>& engine) {
  std::string text;
  if (engine.loss_probability > 0.0) {
    text += " loss=" + std::to_string(engine.loss_probability);
  }
  if (!engine.starts.empty()) {
    Time max_start = Time{};
    for (const Time start : engine.starts) {
      max_start = std::max(max_start, start);
    }
    text += " starts=var(max=" + std::to_string(max_start) + ")";
  }
  if (engine.interference) {
    text += " interference=dynamic";
  }
  if (!engine.indexed_reception) {
    text += " reception=reference";
  }
  if (engine.faults.any()) {
    text += " faults=";
    std::string parts;
    if (engine.faults.churn.enabled()) {
      parts += "churn(p=" +
               std::to_string(engine.faults.churn.crash_probability) + ")";
    }
    if (engine.faults.burst_loss.enabled) {
      if (!parts.empty()) parts += "+";
      parts += "burst-loss";
    }
    if (!engine.faults.spectrum.empty()) {
      if (!parts.empty()) parts += "+";
      parts += "spectrum(" +
               std::to_string(engine.faults.spectrum.size()) + ")";
    }
    if (engine.faults.drift_wander.enabled) {
      if (!parts.empty()) parts += "+";
      parts += "drift-wander";
    }
    text += parts;
  }
  return text;
}

}  // namespace

std::string describe(const ScenarioConfig& config,
                     const sim::EngineCommon<std::uint64_t>& engine) {
  return describe(config) + describe_engine_knobs(engine);
}

std::string describe(const ScenarioConfig& config,
                     const sim::EngineCommon<double>& engine) {
  return describe(config) + describe_engine_knobs(engine);
}

std::string describe(const ScenarioConfig& config,
                     const sim::EngineCommon<std::uint64_t>& engine,
                     SyncKernel kernel, std::size_t process_workers) {
  std::string text = describe(config, engine);
  if (kernel == SyncKernel::kSoa) text += " kernel=soa";
  if (process_workers > 0) {
    text += " workers=" + std::to_string(process_workers);
  }
  return text;
}

}  // namespace m2hew::runner
