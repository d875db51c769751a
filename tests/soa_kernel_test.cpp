// Bit-exactness suite for the SoA slot kernel against its oracle, the
// classic slot engine running the virtual policies.
//
// The kernel's contract (sim/soa_kernel.hpp) is exact identity — same
// completion flag and slot, same per-node activity counters, same per-link
// coverage and first-coverage slots, same robustness report — for ANY
// topology, channel assignment, spec-representable policy, loss rate,
// interference schedule, start pattern, fault plan and seed. The sweep
// below randomizes all of those, exactly as engine_equivalence_test pins
// the indexed reception path to the reference scan.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <tuple>
#include <vector>

#include "core/policy_spec.hpp"
#include "net/channel_assign.hpp"
#include "net/mobility.hpp"
#include "net/propagation.hpp"
#include "net/topology_gen.hpp"
#include "net/topology_provider.hpp"
#include "runner/trials.hpp"
#include "sim/fault_plan.hpp"
#include "sim/slot_engine.hpp"
#include "sim/soa_kernel.hpp"
#include "util/rng.hpp"

namespace m2hew {
namespace {

// Soak runs (ci.yml) export M2HEW_SOAK_SEED to shift every scenario seed,
// widening property coverage across scheduled runs without code changes.
[[nodiscard]] std::uint64_t soak_offset() {
  const char* env = std::getenv("M2HEW_SOAK_SEED");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

// Deterministic pseudo-random interference field: active ~20% of the time,
// decorrelated across (slot, node, channel).
[[nodiscard]] bool pseudo_pu(std::uint64_t slot, net::NodeId node,
                             net::ChannelId channel) {
  std::uint64_t h = (slot + 1) * 0x9E3779B97F4A7C15ull;
  h ^= (static_cast<std::uint64_t>(node) + 1) * 0xBF58476D1CE4E5B9ull;
  h ^= (static_cast<std::uint64_t>(channel) + 1) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h % 5 == 0;
}

// A different topology family per seed residue, so the sweep covers CSR
// shapes from near-regular (grid) through heavy-tailed (Barabási-Albert).
[[nodiscard]] net::Topology random_topology(std::uint64_t seed, net::NodeId n,
                                            util::Rng& rng) {
  switch (seed % 5) {
    case 0:
      return net::make_erdos_renyi(n, 0.4, rng);
    case 1:
      return net::make_erdos_renyi_sparse(n, 0.25, rng);
    case 2:
      return net::make_unit_disk_bucketed(n, 3.0, 1.2, rng).topology;
    case 3:
      return net::make_grid(4, n / 4);
    default:
      return net::make_barabasi_albert(n, 3, rng);
  }
}

[[nodiscard]] net::Network random_network(std::uint64_t seed, net::NodeId n,
                                          util::Rng& rng) {
  net::Topology topology = random_topology(seed, n, rng);
  if (seed % 2 == 0) topology = net::make_asymmetric(topology, 0.3, rng);
  const net::ChannelId universe = (seed % 3 == 0) ? 7 : 6;
  auto assignment =
      (seed % 3 == 0)
          ? net::variable_size_random_assignment(n, universe, 2, 5, rng)
          : net::uniform_random_assignment(n, universe, 3, rng);
  if (seed % 4 == 1) {
    return net::Network(std::move(topology), std::move(assignment),
                        net::random_propagation_filter(universe, 0.7, seed));
  }
  return net::Network(std::move(topology), std::move(assignment));
}

// Randomized fault plan mixing churn, burst loss and scheduled spectrum
// faults by seed bits (same recipe as the engine equivalence sweep).
[[nodiscard]] sim::FaultPlan<std::uint64_t> make_fault_plan(
    std::uint64_t seed, net::NodeId n, double horizon) {
  sim::FaultPlan<std::uint64_t> plan;
  util::Rng rng(seed ^ 0xFA157);
  if (seed % 2 == 0) {
    plan.churn.crash_probability = 0.3 + 0.2 * static_cast<double>(seed % 3);
    plan.churn.earliest_crash = static_cast<std::uint64_t>(horizon * 0.05);
    plan.churn.latest_crash = static_cast<std::uint64_t>(horizon * 0.5);
    plan.churn.min_down = static_cast<std::uint64_t>(horizon * 0.05);
    plan.churn.max_down = static_cast<std::uint64_t>(horizon * 0.3);
    plan.churn.reset_policy_on_recovery = (seed % 4) == 0;
  }
  if (seed % 3 == 0) {
    plan.burst_loss.enabled = true;
    plan.burst_loss.p_good_to_bad = 0.05;
    plan.burst_loss.p_bad_to_good = 0.2;
    plan.burst_loss.loss_good = 0.02;
    plan.burst_loss.loss_bad = 0.8;
  }
  if (seed % 5 == 0) {
    for (net::NodeId u = 0; u < n; ++u) {
      plan.positions.push_back({rng.uniform_double(), rng.uniform_double()});
    }
    for (int i = 0; i < 4; ++i) {
      net::ScheduledPrimaryUser pu;
      pu.user.position = {rng.uniform_double(), rng.uniform_double()};
      pu.user.radius = 0.3 + 0.3 * rng.uniform_double();
      pu.user.channel = static_cast<net::ChannelId>(rng.uniform(6));
      pu.on_from = horizon * 0.6 * rng.uniform_double();
      pu.on_until = pu.on_from + horizon * 0.3 * rng.uniform_double();
      plan.spectrum.push_back(pu);
    }
  }
  if (seed % 2 == 1) {
    plan.adversary.fraction = 0.2 + 0.2 * static_cast<double>(seed % 3);
    plan.adversary.attack = static_cast<sim::AdversaryAttack>(seed % 4);
    plan.adversary.byzantine_tx = 0.6;
    plan.adversary.victim_fraction = 0.5;
  }
  return plan;
}

[[nodiscard]] core::SyncPolicySpec spec_for(std::uint64_t seed) {
  switch (seed % 4) {
    case 0:
      return core::SyncPolicySpec::algorithm1(16);
    case 1:
      return core::SyncPolicySpec::algorithm2();
    case 2:
      return core::SyncPolicySpec::algorithm2(core::EstimateSchedule::kDouble);
    default:
      return core::SyncPolicySpec::algorithm3(8);
  }
}

[[nodiscard]] sim::SlotEngineConfig random_config(std::uint64_t seed,
                                                  net::NodeId n,
                                                  util::Rng& rng) {
  sim::SlotEngineConfig config;
  config.max_slots = 400;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) != 0;
  config.loss_probability = (seed % 3 == 1) ? 0.25 : 0.0;
  if (seed % 2 == 0) {
    config.interference = [](std::uint64_t slot, net::NodeId node,
                             net::ChannelId c) {
      return pseudo_pu(slot, node, c);
    };
  }
  config.starts.assign(n, 0);
  for (auto& s : config.starts) s = rng.uniform(25);
  config.faults = make_fault_plan(seed, n, 400.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;
  return config;
}

void expect_same_robustness(const sim::RobustnessReport& a,
                            const sim::RobustnessReport& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes);
  EXPECT_EQ(a.down_at_end, b.down_at_end);
  EXPECT_EQ(a.surviving_links, b.surviving_links);
  EXPECT_EQ(a.covered_surviving_links, b.covered_surviving_links);
  EXPECT_EQ(a.ghost_entries, b.ghost_entries);
  EXPECT_EQ(a.recovered_links, b.recovered_links);
  EXPECT_EQ(a.rediscovered_links, b.rediscovered_links);
  EXPECT_DOUBLE_EQ(a.mean_rediscovery, b.mean_rediscovery);
  EXPECT_DOUBLE_EQ(a.max_rediscovery, b.max_rediscovery);
  EXPECT_EQ(a.adversary, b.adversary);
  EXPECT_EQ(a.adversary_nodes, b.adversary_nodes);
  EXPECT_EQ(a.real_entries, b.real_entries);
  EXPECT_EQ(a.fake_entries, b.fake_entries);
  EXPECT_EQ(a.isolated_fakes, b.isolated_fakes);
  EXPECT_EQ(a.honest_isolated, b.honest_isolated);
  EXPECT_DOUBLE_EQ(a.mean_isolation, b.mean_isolation);
  EXPECT_DOUBLE_EQ(a.max_isolation, b.max_isolation);
}

// One on_reception(slot, sender, listener, channel) call.
using ReceptionEvent =
    std::tuple<std::uint64_t, net::NodeId, net::NodeId, net::ChannelId>;

// `config` with an on_reception hook that appends every call to `log`.
// Coverage alone cannot show a reordering of receptions within a slot;
// the call sequence can.
[[nodiscard]] sim::SlotEngineConfig recording(
    sim::SlotEngineConfig config, std::vector<ReceptionEvent>& log) {
  config.on_reception = [&log](std::uint64_t slot, net::NodeId sender,
                               net::NodeId listener, net::ChannelId c) {
    log.emplace_back(slot, sender, listener, c);
  };
  return config;
}

class SoaKernelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoaKernelEquivalence, MatchesSlotEngineBitExactly) {
  const std::uint64_t seed = GetParam() + soak_offset();
  util::Rng rng(seed ^ 0x50A);
  const auto n = static_cast<net::NodeId>(12 + 4 * (seed % 4));
  const net::Network network = random_network(seed, n, rng);
  const core::SyncPolicySpec spec = spec_for(seed);
  const sim::SlotEngineConfig config = random_config(seed, n, rng);

  std::vector<ReceptionEvent> engine_log;
  std::vector<ReceptionEvent> soa_log;
  const auto engine = sim::run_slot_engine(
      network, core::make_policy_factory(spec), recording(config, engine_log));
  const auto soa = sim::run_soa_slot_kernel(
      network, core::build_soa_policy_table(network, spec),
      recording(config, soa_log));

  EXPECT_EQ(engine.complete, soa.complete);
  EXPECT_EQ(engine.completion_slot, soa.completion_slot);
  EXPECT_EQ(engine.slots_executed, soa.slots_executed);
  EXPECT_EQ(soa_log.size(), static_cast<std::size_t>(soa.receptions));
  EXPECT_TRUE(engine_log == soa_log) << "reception sequences differ";

  ASSERT_EQ(engine.activity.size(), soa.activity.size());
  for (std::size_t u = 0; u < engine.activity.size(); ++u) {
    EXPECT_EQ(engine.activity[u].transmit, soa.activity[u].transmit)
        << "node " << u;
    EXPECT_EQ(engine.activity[u].receive, soa.activity[u].receive)
        << "node " << u;
    EXPECT_EQ(engine.activity[u].quiet, soa.activity[u].quiet) << "node " << u;
  }

  EXPECT_EQ(engine.state.covered_links(),
            static_cast<std::size_t>(soa.covered_links));
  EXPECT_EQ(engine.state.reception_count(),
            static_cast<std::size_t>(soa.receptions));
  EXPECT_EQ(network.links().size(),
            static_cast<std::size_t>(soa.total_links));
  for (const net::Link link : network.links()) {
    ASSERT_EQ(engine.state.is_covered(link), soa.is_covered(link))
        << "link " << link.from << "->" << link.to;
    if (engine.state.is_covered(link)) {
      EXPECT_DOUBLE_EQ(engine.state.first_coverage_time(link),
                       soa.first_coverage_slot(link))
          << "link " << link.from << "->" << link.to;
    }
  }

  expect_same_robustness(engine.robustness, soa.robustness);
}

// The dynamic-topology leg: under a moving epoch schedule the kernel
// filters its immutable union CSR through the epoch's live bits, as the
// oracle's reception resolution does. Identity must survive the filter —
// same candidate order, same RNG draws, same receptions.
TEST_P(SoaKernelEquivalence, MatchesSlotEngineUnderEpochSchedule) {
  const std::uint64_t seed = GetParam() + soak_offset();
  util::Rng rng(seed ^ 0x50B);
  const auto n = static_cast<net::NodeId>(12 + 4 * (seed % 4));

  net::MobilityConfig mobility;
  mobility.nodes = n;
  mobility.side = 1.0;
  mobility.radius = 0.45;
  mobility.speed_min = 0.02;
  mobility.speed_max = 0.05 + 0.05 * static_cast<double>(seed % 3);
  mobility.pause_epochs = seed % 2;
  mobility.epochs = 3 + seed % 3;
  const auto assignment =
      (seed % 3 == 0)
          ? net::variable_size_random_assignment(n, 7, 2, 5, rng)
          : net::uniform_random_assignment(n, 6, 3, rng);
  const net::EpochTopologyProvider provider(mobility, assignment, seed);
  const net::Network& network = provider.union_network();

  const core::SyncPolicySpec spec = spec_for(seed);
  sim::SlotEngineConfig config = random_config(seed, n, rng);
  config.topology = &provider;
  config.epoch_length = 50 + 25 * (seed % 3);

  std::vector<ReceptionEvent> engine_log;
  std::vector<ReceptionEvent> soa_log;
  const auto engine = sim::run_slot_engine(
      network, core::make_policy_factory(spec), recording(config, engine_log));
  const auto soa = sim::run_soa_slot_kernel(
      network, core::build_soa_policy_table(network, spec),
      recording(config, soa_log));

  EXPECT_EQ(engine.complete, soa.complete);
  EXPECT_EQ(engine.completion_slot, soa.completion_slot);
  EXPECT_EQ(engine.slots_executed, soa.slots_executed);
  EXPECT_EQ(soa_log.size(), static_cast<std::size_t>(soa.receptions));
  EXPECT_TRUE(engine_log == soa_log) << "reception sequences differ";

  ASSERT_EQ(engine.activity.size(), soa.activity.size());
  for (std::size_t u = 0; u < engine.activity.size(); ++u) {
    EXPECT_EQ(engine.activity[u].transmit, soa.activity[u].transmit)
        << "node " << u;
    EXPECT_EQ(engine.activity[u].receive, soa.activity[u].receive)
        << "node " << u;
    EXPECT_EQ(engine.activity[u].quiet, soa.activity[u].quiet) << "node " << u;
  }

  EXPECT_EQ(engine.state.covered_links(),
            static_cast<std::size_t>(soa.covered_links));
  EXPECT_EQ(engine.state.reception_count(),
            static_cast<std::size_t>(soa.receptions));
  for (const net::Link link : network.links()) {
    ASSERT_EQ(engine.state.is_covered(link), soa.is_covered(link))
        << "link " << link.from << "->" << link.to;
    if (engine.state.is_covered(link)) {
      EXPECT_DOUBLE_EQ(engine.state.first_coverage_time(link),
                       soa.first_coverage_slot(link))
          << "link " << link.from << "->" << link.to;
    }
  }

  expect_same_robustness(engine.robustness, soa.robustness);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SoaKernelEquivalence,
                         ::testing::Range<std::uint64_t>(1, 33));

// One kernel object must be reusable across trials (the per-trial arena):
// running the same config twice on one instance is bit-identical.
TEST(SoaKernel, ReusedInstanceIsDeterministic) {
  util::Rng rng(7);
  const net::Network network = random_network(9, 16, rng);
  const core::SyncPolicySpec spec = core::SyncPolicySpec::algorithm2();
  const sim::SoaPolicyTable table =
      core::build_soa_policy_table(network, spec);
  sim::SlotEngineConfig config;
  config.max_slots = 300;
  config.seed = 42;
  config.loss_probability = 0.2;

  sim::SoaSlotKernel kernel(network);
  const auto first = kernel.run(table, config);
  const auto second = kernel.run(table, config);
  EXPECT_EQ(first.complete, second.complete);
  EXPECT_EQ(first.completion_slot, second.completion_slot);
  EXPECT_EQ(first.receptions, second.receptions);
  EXPECT_EQ(first.covered, second.covered);
  EXPECT_EQ(first.first_slot, second.first_slot);
}

// A constant-law table that pins every node's action without a draw: node
// u transmits (p = 1) or listens (p = 0) on channel `channel[u]`, through
// a one-entry consistent-hop map.
[[nodiscard]] sim::SoaPolicyTable pinned_table(
    std::vector<double> p, std::vector<net::ChannelId> channel) {
  sim::SoaPolicyTable table;
  table.staged = false;
  table.p_constant = std::move(p);
  table.channel_law = sim::SoaChannelLaw::kConsistentHop;
  table.hop_period = 1;
  table.hop_map = std::move(channel);
  return table;
}

// The engines' counterpart of pinned_table: the node always transmits
// (p = 1) or listens (p = 0) on one channel.
class PinnedPolicy final : public sim::SyncPolicy {
 public:
  explicit PinnedPolicy(sim::SlotAction action) : action_(action) {}
  sim::SlotAction next_slot(util::Rng&) override { return action_; }

 private:
  sim::SlotAction action_;
};

// Runs pinned actions on the slot engine's default (scatter) and reference
// paths and on the SoA kernel. All three must make exactly the `expected`
// on_reception calls and agree on activity and coverage; returns the SoA
// result for scenario-specific checks.
[[nodiscard]] sim::SoaSlotKernelResult expect_pinned_receptions(
    const net::Network& network, const std::vector<double>& p,
    const std::vector<net::ChannelId>& channel,
    const sim::SlotEngineConfig& config,
    const std::vector<ReceptionEvent>& expected) {
  const sim::SyncPolicyFactory factory =
      [&p, &channel](const net::Network&, net::NodeId u) {
        return std::make_unique<PinnedPolicy>(sim::SlotAction{
            p[u] == 1.0 ? sim::Mode::kTransmit : sim::Mode::kReceive,
            channel[u]});
      };
  std::vector<ReceptionEvent> soa_log;
  const auto soa = sim::run_soa_slot_kernel(
      network, pinned_table(p, channel), recording(config, soa_log));
  EXPECT_EQ(soa_log, expected) << "soa kernel";
  for (const bool indexed : {true, false}) {
    sim::SlotEngineConfig path = config;
    path.indexed_reception = indexed;
    std::vector<ReceptionEvent> log;
    const auto engine =
        sim::run_slot_engine(network, factory, recording(path, log));
    EXPECT_EQ(log, expected) << "indexed_reception=" << indexed;
    EXPECT_EQ(engine.state.reception_count(),
              static_cast<std::size_t>(soa.receptions));
    for (net::NodeId u = 0; u < network.node_count(); ++u) {
      EXPECT_EQ(engine.activity[u].transmit, soa.activity[u].transmit) << u;
      EXPECT_EQ(engine.activity[u].receive, soa.activity[u].receive) << u;
      EXPECT_EQ(engine.activity[u].quiet, soa.activity[u].quiet) << u;
    }
    for (const net::Link link : network.links()) {
      EXPECT_EQ(engine.state.is_covered(link), soa.is_covered(link));
      if (engine.state.is_covered(link) && soa.is_covered(link)) {
        EXPECT_EQ(engine.state.first_coverage_time(link),
                  soa.first_coverage_slot(link));
      }
    }
  }
  return soa;
}

// Reception resolution's edge cases on hand-built networks with pinned
// actions, so every expected reception is known in advance; each runs on
// both slot engine paths and on the kernel.
TEST(SoaKernel, ResolutionEdgeCases) {
  const net::ChannelSet both(2, {0, 1});
  {
    // 0 and 1 transmit on channel 0; 2, 3 and 4 listen on it.
    //  * 0->2 and 1->2 reach 2, but 1->2 does not propagate channel 0:
    //    2 hears 0 cleanly, no collision.
    //  * 0->3 has no reverse arc, and 3->1 has none either: 3 hears 0,
    //    and 1 must not reach 3 through the arc that points away from it.
    //  * 0->4 is 4's only in-arc, but 4 is jammed: it hears nothing.
    net::Topology topology(5);
    topology.add_arc(0, 2);
    topology.add_arc(1, 2);
    topology.add_arc(0, 3);
    topology.add_arc(3, 1);
    topology.add_arc(0, 4);
    const net::Network network(
        std::move(topology), std::vector<net::ChannelSet>(5, both),
        [&both](net::NodeId from, net::NodeId to) {
          return from == 1 && to == 2 ? net::ChannelSet(2, {1}) : both;
        });
    sim::SlotEngineConfig config;
    config.max_slots = 3;
    config.stop_when_complete = false;
    config.interference = [](std::uint64_t, net::NodeId node,
                             net::ChannelId) { return node == 4; };
    std::vector<ReceptionEvent> expected;
    for (std::uint64_t slot = 0; slot < 3; ++slot) {
      expected.emplace_back(slot, 0, 2, 0);
      expected.emplace_back(slot, 0, 3, 0);
    }
    const auto result = expect_pinned_receptions(
        network, {1, 1, 0, 0, 0}, {0, 0, 0, 0, 0}, config, expected);
    EXPECT_EQ(result.receptions, 6u);
    EXPECT_TRUE(result.is_covered({0, 2}));
    EXPECT_TRUE(result.is_covered({0, 3}));
    EXPECT_FALSE(result.is_covered({0, 4}));
    EXPECT_FALSE(result.is_covered({1, 2}));
    EXPECT_EQ(result.activity[4].receive, 3u);
    EXPECT_EQ(result.activity[0].transmit, 3u);
  }
  {
    // Two epochs of two slots. 0 and 2 transmit on channel 0 and 1
    // listens. Epoch 0 has only the edge 0-1 and epoch 1 only 2-1, so
    // each epoch's dead arc must neither deliver nor collide.
    net::Topology first(3);
    first.add_edge(0, 1);
    net::Topology second(3);
    second.add_edge(2, 1);
    const net::EpochTopologyProvider provider(
        {std::move(first), std::move(second)},
        std::vector<net::ChannelSet>(3, both));
    sim::SlotEngineConfig config;
    config.max_slots = 4;
    config.stop_when_complete = false;
    config.topology = &provider;
    config.epoch_length = 2;
    const auto result = expect_pinned_receptions(
        provider.union_network(), {1, 0, 1}, {0, 0, 0}, config,
        {{0, 0, 1, 0}, {1, 0, 1, 0}, {2, 2, 1, 0}, {3, 2, 1, 0}});
    EXPECT_DOUBLE_EQ(result.first_coverage_slot({0, 1}), 0.0);
    EXPECT_DOUBLE_EQ(result.first_coverage_slot({2, 1}), 2.0);
  }
}

void expect_same_stats(const runner::SyncTrialStats& a,
                       const runner::SyncTrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.completed, b.completed);
  const auto sa = a.completion_slots.summarize();
  const auto sb = b.completion_slots.summarize();
  EXPECT_DOUBLE_EQ(sa.mean, sb.mean);
  EXPECT_DOUBLE_EQ(sa.p50, sb.p50);
  EXPECT_DOUBLE_EQ(sa.p95, sb.p95);
  EXPECT_DOUBLE_EQ(sa.max, sb.max);
  EXPECT_EQ(a.robustness.fault_trials, b.robustness.fault_trials);
  EXPECT_EQ(a.robustness.recovered_links, b.robustness.recovered_links);
  EXPECT_EQ(a.robustness.rediscovered_links, b.robustness.rediscovered_links);
}

// The runner's two slotted loops: the spec overload (policy table on the
// SoA kernel) must aggregate identically to the factory overload running
// the spec's policy objects, and — like every trial runner — identically
// at any worker count.
TEST(SoaKernelTrials, EngineAndSoaAggregatesMatch) {
  util::Rng rng(11);
  const net::Network network = random_network(10, 14, rng);

  runner::SyncTrialConfig config;
  config.trials = 12;
  config.seed = 5;
  config.threads = 1;
  config.engine.max_slots = 400;
  config.engine.faults = make_fault_plan(10, 14, 400.0);
  config.engine.loss_probability =
      config.engine.faults.burst_loss.enabled ? 0.0 : 0.1;
  const core::SyncPolicySpec spec = core::SyncPolicySpec::algorithm1(12);

  const auto engine_stats = runner::run_sync_trials(
      network, core::make_policy_factory(spec), config);
  const auto soa_stats = runner::run_sync_trials(network, spec, config);
  expect_same_stats(engine_stats, soa_stats);
}

TEST(SoaKernelTrials, SerialMatchesParallelUnderSoa) {
  util::Rng rng(13);
  const net::Network network = random_network(12, 16, rng);

  runner::SyncTrialConfig config;
  config.trials = 16;
  config.seed = 9;
  config.engine.max_slots = 500;
  config.engine.faults = make_fault_plan(12, 16, 500.0);
  config.engine.loss_probability =
      config.engine.faults.burst_loss.enabled ? 0.0 : 0.15;
  config.per_trial = [](std::size_t t, sim::SlotEngineConfig& engine) {
    engine.starts.assign(16, 0);
    for (std::size_t u = 0; u < engine.starts.size(); ++u) {
      engine.starts[u] = (t * 7 + u * 3) % 20;
    }
  };

  config.threads = 1;
  const auto serial = runner::run_sync_trials(network, spec_for(4), config);
  config.threads = 4;
  const auto parallel = runner::run_sync_trials(network, spec_for(4), config);
  expect_same_stats(serial, parallel);
}

// Both coverage APIs answer false for a pair that is not a discovery link
// — a non-arc as well as an arc whose span is empty — and agree on every
// ordered pair. first_coverage_* still require a covered link.
TEST(SoaKernel, CoverageOfNonArcIsFalseOnBothPaths) {
  // Path 0-1-2-3; node 3 shares no channel with node 2, so 2<->3 are arcs
  // without a discovery link, and 0->2 is no arc at all.
  net::Topology topology(4);
  topology.add_edge(0, 1);
  topology.add_edge(1, 2);
  topology.add_edge(2, 3);
  const net::Network network(
      std::move(topology),
      {net::ChannelSet(3, {0, 1}), net::ChannelSet(3, {0, 1}),
       net::ChannelSet(3, {0, 1}), net::ChannelSet(3, {2})});
  const core::SyncPolicySpec spec = core::SyncPolicySpec::algorithm2();
  sim::SlotEngineConfig config;
  config.max_slots = 200;
  config.seed = 3;

  const auto engine =
      sim::run_slot_engine(network, core::make_policy_factory(spec), config);
  const auto soa = sim::run_soa_slot_kernel(
      network, core::build_soa_policy_table(network, spec), config);

  for (const net::Link pair : {net::Link{0, 2}, net::Link{2, 0},
                               net::Link{0, 3}, net::Link{2, 3},
                               net::Link{3, 2}}) {
    EXPECT_FALSE(engine.state.is_covered(pair))
        << pair.from << "->" << pair.to;
    EXPECT_FALSE(soa.is_covered(pair)) << pair.from << "->" << pair.to;
  }
  for (net::NodeId a = 0; a < 4; ++a) {
    for (net::NodeId b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_EQ(engine.state.is_covered({a, b}), soa.is_covered({a, b}))
          << a << "->" << b;
    }
  }
  EXPECT_DEATH((void)soa.first_coverage_slot({0, 2}), "CHECK failed");
}

// --- Contracts at the claimed scale ---------------------------------------
//
// engine==soa and serial==parallel on a bucketed unit-disk network with
// mean degree ~6 under churn, burst loss and a mixed adversary plan.
// M2HEW_SCALE_N sets the node count (as M2HEW_SOAK_SEED shifts the soak
// seeds); the default keeps the suite fast, and a scheduled CI job runs
// N = 100,000 under a peak-RSS ceiling.
[[nodiscard]] net::NodeId scale_n() {
  const char* env = std::getenv("M2HEW_SCALE_N");
  return env == nullptr
             ? 2000
             : static_cast<net::NodeId>(std::strtoull(env, nullptr, 10));
}

constexpr std::uint64_t kScaleSlots = 200;

[[nodiscard]] net::Network scale_network(net::NodeId n) {
  util::Rng rng(0x5CA1E + soak_offset());
  // Side sqrt(N) and radius 1.382: pi * r^2 ~ 6 neighbors per node.
  net::Topology topology =
      net::make_unit_disk_bucketed(
          n, std::sqrt(static_cast<double>(n)), 1.382, rng)
          .topology;
  return net::Network(std::move(topology),
                      net::uniform_random_assignment(n, 6, 3, rng));
}

[[nodiscard]] sim::SlotEngineConfig scale_config(std::uint64_t seed) {
  sim::SlotEngineConfig config;
  config.max_slots = kScaleSlots;
  config.seed = seed;
  config.faults.churn = {0.3, 20, 100, 10, 60, true};
  config.faults.burst_loss = {true, 0.05, 0.2, 0.02, 0.8};
  config.faults.adversary.fraction = 0.1;
  config.faults.adversary.attack = sim::AdversaryAttack::kMix;
  config.faults.adversary.byzantine_tx = 0.6;
  return config;
}

void expect_matches_at_scale(const net::Network& network,
                             const sim::SlotEngineResult& engine,
                             const sim::SoaSlotKernelResult& soa) {
  EXPECT_EQ(engine.complete, soa.complete);
  EXPECT_EQ(engine.completion_slot, soa.completion_slot);
  EXPECT_EQ(engine.slots_executed, soa.slots_executed);
  ASSERT_EQ(engine.activity.size(), soa.activity.size());
  for (std::size_t u = 0; u < engine.activity.size(); ++u) {
    ASSERT_EQ(engine.activity[u].transmit, soa.activity[u].transmit) << u;
    ASSERT_EQ(engine.activity[u].receive, soa.activity[u].receive) << u;
    ASSERT_EQ(engine.activity[u].quiet, soa.activity[u].quiet) << u;
  }
  EXPECT_GT(soa.covered_links, 0u);
  EXPECT_EQ(engine.state.covered_links(),
            static_cast<std::size_t>(soa.covered_links));
  EXPECT_EQ(engine.state.reception_count(),
            static_cast<std::size_t>(soa.receptions));
  for (const net::Link link : network.links()) {
    ASSERT_EQ(engine.state.is_covered(link), soa.is_covered(link))
        << "link " << link.from << "->" << link.to;
    if (engine.state.is_covered(link)) {
      ASSERT_EQ(engine.state.first_coverage_time(link),
                soa.first_coverage_slot(link))
          << "link " << link.from << "->" << link.to;
    }
  }
  EXPECT_TRUE(soa.robustness.adversary);
  EXPECT_GT(soa.robustness.recovered_links, 0u);
  expect_same_robustness(engine.robustness, soa.robustness);
}

// The kernel against both slot engine paths: the default scatter and the
// reference in-link scan.
TEST(SoaKernelAtScale, MatchesSlotEngine) {
  const net::Network network = scale_network(scale_n());
  const core::SyncPolicySpec spec = core::SyncPolicySpec::algorithm3(8);
  const sim::SlotEngineConfig config = scale_config(17 + soak_offset());

  const auto soa = sim::run_soa_slot_kernel(
      network, core::build_soa_policy_table(network, spec), config);
  for (const bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "scatter" : "reference");
    sim::SlotEngineConfig path = config;
    path.indexed_reception = indexed;
    expect_matches_at_scale(
        network,
        sim::run_slot_engine(network, core::make_policy_factory(spec), path),
        soa);
  }
}

void expect_same_samples(const util::Samples& a, const util::Samples& b) {
  ASSERT_EQ(a.count(), b.count());
  for (std::size_t i = 0; i < a.count(); ++i) {
    EXPECT_EQ(a.values()[i], b.values()[i]) << "sample " << i;
  }
}

void expect_same_robustness_stats(const runner::RobustnessStats& a,
                                  const runner::RobustnessStats& b) {
  EXPECT_EQ(a.fault_trials, b.fault_trials);
  expect_same_samples(a.surviving_recall, b.surviving_recall);
  expect_same_samples(a.ghost_entries, b.ghost_entries);
  expect_same_samples(a.rediscovery_times, b.rediscovery_times);
  EXPECT_EQ(a.recovered_links, b.recovered_links);
  EXPECT_EQ(a.rediscovered_links, b.rediscovered_links);
  EXPECT_EQ(a.adversary_trials, b.adversary_trials);
  expect_same_samples(a.precision_under_attack, b.precision_under_attack);
  expect_same_samples(a.isolation_times, b.isolation_times);
  EXPECT_EQ(a.fake_entries, b.fake_entries);
  EXPECT_EQ(a.isolated_fakes, b.isolated_fakes);
  EXPECT_EQ(a.honest_isolated, b.honest_isolated);
}

// Per-trial, per-arc first-coverage slots recorded through on_reception
// (each trial writes only its own row, so the hook is worker-safe).
struct ScaleRun {
  runner::SyncTrialStats stats;
  std::vector<std::vector<double>> first;  // [trial][arc id]
};

[[nodiscard]] ScaleRun run_scale_trials(const net::Network& network,
                                        runner::SyncKernel kernel,
                                        std::size_t threads) {
  constexpr std::size_t kTrials = 3;
  ScaleRun run;
  run.first.assign(kTrials, std::vector<double>(network.arc_count(), -1.0));
  runner::SyncTrialConfig config;
  config.trials = kTrials;
  config.seed = 23 + soak_offset();
  config.threads = threads;
  config.engine = scale_config(0);
  config.per_trial = [&](std::size_t t, sim::SlotEngineConfig& engine) {
    std::vector<double>* first = &run.first[t];
    engine.on_reception = [&network, first](std::uint64_t slot,
                                            net::NodeId from, net::NodeId to,
                                            net::ChannelId) {
      double& cell = (*first)[network.in_arc(from, to)];
      if (cell < 0.0) cell = static_cast<double>(slot);
    };
  };
  const core::SyncPolicySpec spec = core::SyncPolicySpec::algorithm3(8);
  run.stats = kernel == runner::SyncKernel::kSoa
                  ? runner::run_sync_trials(network, spec, config)
                  : runner::run_sync_trials(
                        network, core::make_policy_factory(spec), config);
  return run;
}

TEST(SoaKernelAtScale, SerialMatchesParallelOnBothKernels) {
  const net::Network network = scale_network(scale_n());
  const ScaleRun soa_serial =
      run_scale_trials(network, runner::SyncKernel::kSoa, 1);
  const ScaleRun soa_parallel =
      run_scale_trials(network, runner::SyncKernel::kSoa, 4);
  const ScaleRun engine_parallel =
      run_scale_trials(network, runner::SyncKernel::kEngine, 4);

  EXPECT_EQ(soa_serial.stats.robustness.fault_trials, 3u);
  EXPECT_EQ(soa_parallel.stats.threads_used, 3u);
  for (const ScaleRun* other : {&soa_parallel, &engine_parallel}) {
    expect_same_stats(soa_serial.stats, other->stats);
    expect_same_robustness_stats(soa_serial.stats.robustness,
                                 other->stats.robustness);
    EXPECT_TRUE(soa_serial.first == other->first)
        << "per-link first coverage differs";
  }
}

}  // namespace
}  // namespace m2hew
