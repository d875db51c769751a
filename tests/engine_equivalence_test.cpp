// Equivalence property test for the indexed reception hot paths.
//
// Both engines resolve receptions through an indexed path — the slot
// engine's per-slot transmitter-side scatter, the async engine's per-frame
// scatter into receiver inboxes (SlotEngineConfig/AsyncEngineConfig
// `indexed_reception`, the default) — but keep the original per-listener
// scans as naive reference implementations.
// The rewrite's contract is *bit identity*: for any topology, channel
// assignment, policy, loss rate, interference schedule, start pattern and
// seed, the indexed path must produce exactly the same DiscoveryState,
// activity counters and completion slots/times as the reference — the same
// policy-callback order and the same shared loss_rng draw order.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/adaptive.hpp"
#include "core/algorithms.hpp"
#include "core/duty_cycle.hpp"
#include "core/multi_radio.hpp"
#include "core/termination.hpp"
#include "net/channel_assign.hpp"
#include "net/mobility.hpp"
#include "net/primary_user.hpp"
#include "net/propagation.hpp"
#include "net/topology_gen.hpp"
#include "net/topology_provider.hpp"
#include "sim/async_engine.hpp"
#include "sim/clock.hpp"
#include "sim/fault_plan.hpp"
#include "sim/multi_radio_engine.hpp"
#include "sim/slot_engine.hpp"
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
// decorrelated across (time quantum, node, channel).
[[nodiscard]] bool pseudo_pu(std::uint64_t quantum, net::NodeId node,
                             net::ChannelId channel) {
  std::uint64_t h = (quantum + 1) * 0x9E3779B97F4A7C15ull;
  h ^= (static_cast<std::uint64_t>(node) + 1) * 0xBF58476D1CE4E5B9ull;
  h ^= (static_cast<std::uint64_t>(channel) + 1) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h % 5 == 0;
}

[[nodiscard]] net::Network random_network(util::Rng& rng, std::uint64_t seed,
                                          net::NodeId n, bool asymmetric,
                                          bool masked) {
  net::Topology topology = net::make_erdos_renyi(n, 0.45, rng);
  if (asymmetric) topology = net::make_asymmetric(topology, 0.4, rng);
  auto assignment = net::uniform_random_assignment(n, 6, 3, rng);
  return masked ? net::Network(std::move(topology), std::move(assignment),
                               net::random_propagation_filter(6, 0.7, seed))
                : net::Network(std::move(topology), std::move(assignment));
}

// Randomized fault plan over the first `horizon` time units: churn, burst
// loss and scheduled spectrum faults mixed in by seed bits. The identity
// contract must hold with ANY plan attached — the plan rides in the shared
// config and is consumed identically on both reception paths.
template <typename Time>
[[nodiscard]] sim::FaultPlan<Time> make_fault_plan(std::uint64_t seed,
                                                   net::NodeId n,
                                                   double horizon) {
  sim::FaultPlan<Time> plan;
  util::Rng rng(seed ^ 0xFA157);
  if (seed % 2 == 0) {
    plan.churn.crash_probability = 0.3 + 0.2 * static_cast<double>(seed % 3);
    plan.churn.earliest_crash = static_cast<Time>(horizon * 0.05);
    plan.churn.latest_crash = static_cast<Time>(horizon * 0.5);
    plan.churn.min_down = static_cast<Time>(horizon * 0.05);
    plan.churn.max_down = static_cast<Time>(horizon * 0.3);
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
      plan.positions.push_back(
          {rng.uniform_double(), rng.uniform_double()});
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

void expect_same_state(const net::Network& network,
                       const sim::DiscoveryState& a,
                       const sim::DiscoveryState& b) {
  EXPECT_EQ(a.covered_links(), b.covered_links());
  EXPECT_EQ(a.reception_count(), b.reception_count());
  for (const net::Link link : network.links()) {
    ASSERT_EQ(a.is_covered(link), b.is_covered(link))
        << "link " << link.from << "->" << link.to;
    if (a.is_covered(link)) {
      EXPECT_DOUBLE_EQ(a.first_coverage_time(link),
                       b.first_coverage_time(link))
          << "link " << link.from << "->" << link.to;
    }
  }
  for (net::NodeId u = 0; u < network.node_count(); ++u) {
    const auto& ta = a.neighbor_table(u);
    const auto& tb = b.neighbor_table(u);
    ASSERT_EQ(ta.size(), tb.size()) << "table of node " << u;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].neighbor, tb[i].neighbor)
          << "table of node " << u << " entry " << i;
    }
  }
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

void expect_same_activity(const std::vector<sim::RadioActivity>& a,
                          const std::vector<sim::RadioActivity>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a[u].transmit, b[u].transmit) << "node " << u;
    EXPECT_EQ(a[u].receive, b[u].receive) << "node " << u;
    EXPECT_EQ(a[u].quiet, b[u].quiet) << "node " << u;
  }
}

class EngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, SlotEngineIndexedMatchesReference) {
  const std::uint64_t seed = GetParam() + soak_offset();
  util::Rng rng(seed);
  const auto n = static_cast<net::NodeId>(8 + 8 * (seed % 3));
  const net::Network network = random_network(
      rng, seed, n, /*asymmetric=*/(seed % 2) != 0, /*masked=*/(seed % 3) == 0);

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
  config.faults = make_fault_plan<std::uint64_t>(seed, n, 400.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;

  sim::SyncPolicyFactory factory;
  switch (seed % 4) {
    case 0:
      factory = core::make_algorithm1(16);
      break;
    case 1:
      factory = core::make_algorithm2();
      break;
    case 2:
      factory = core::make_algorithm3(8);
      break;
    default:
      // Feedback-driven policy under a wrapper: exercises the listen
      // outcome sequencing (and its forwarding) hardest.
      factory = core::with_termination(core::make_adaptive(), 60);
      break;
  }

  sim::SlotEngineConfig indexed = config;
  indexed.indexed_reception = true;
  sim::SlotEngineConfig reference = config;
  reference.indexed_reception = false;

  const auto a = sim::run_slot_engine(network, factory, indexed);
  const auto b = sim::run_slot_engine(network, factory, reference);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completion_slot, b.completion_slot);
  EXPECT_EQ(a.slots_executed, b.slots_executed);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

TEST_P(EngineEquivalence, AsyncEngineIndexedMatchesReference) {
  const std::uint64_t seed = GetParam() + soak_offset();
  util::Rng rng(seed ^ 0xA5A5);
  const auto n = static_cast<net::NodeId>(6 + 4 * (seed % 2));
  const net::Network network = random_network(
      rng, seed, n, /*asymmetric=*/(seed % 3) == 0, /*masked=*/(seed % 2) == 0);

  sim::AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.slots_per_frame = 3;
  config.max_real_time = 500.0;
  config.max_frames_per_node = 4000;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) == 0;
  config.loss_probability = (seed % 3 == 2) ? 0.2 : 0.0;
  if (seed % 2 != 0) {
    config.interference = [](double time, net::NodeId node,
                             net::ChannelId c) {
      return pseudo_pu(static_cast<std::uint64_t>(time * 4.0), node, c);
    };
  }
  config.starts.assign(n, 0.0);
  for (auto& t : config.starts) t = rng.uniform_double() * 10.0;
  config.faults = make_fault_plan<double>(seed, n, 500.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;
  if (seed % 7 == 0) {
    // Drift wander replaces the clock_builder below on these seeds.
    config.faults.drift_wander.enabled = true;
    config.faults.drift_wander.max_drift = 0.12;
  }
  config.clock_builder = [](net::NodeId, std::uint64_t clock_seed) {
    sim::PiecewiseDriftClock::Config drift;
    drift.max_drift = 0.1;
    drift.min_segment = 10.0;
    drift.max_segment = 40.0;
    return std::make_unique<sim::PiecewiseDriftClock>(drift, clock_seed);
  };

  const sim::AsyncPolicyFactory factory =
      (seed % 2 == 0) ? core::make_algorithm4(6)
                      : core::with_termination(core::make_algorithm4(4), 80);

  sim::AsyncEngineConfig indexed = config;
  indexed.indexed_reception = true;
  sim::AsyncEngineConfig reference = config;
  reference.indexed_reception = false;

  const auto a = sim::run_async_engine(network, factory, indexed);
  const auto b = sim::run_async_engine(network, factory, reference);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  EXPECT_DOUBLE_EQ(a.t_s, b.t_s);
  EXPECT_EQ(a.frames_started, b.frames_started);
  EXPECT_EQ(a.full_frames_since_ts, b.full_frames_since_ts);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

// A moving epoch schedule for the dynamic-topology legs below: the
// indexed/reference contract must also hold while the live arcs change at
// epoch boundaries (net/topology_provider.hpp) — both paths filter
// receptions through the same per-epoch live bits.
[[nodiscard]] net::MobilityConfig mobility_config(std::uint64_t seed,
                                                  net::NodeId n) {
  net::MobilityConfig config;
  config.nodes = n;
  config.side = 1.0;
  config.radius = 0.45;
  config.speed_min = 0.02;
  config.speed_max = 0.05 + 0.05 * static_cast<double>(seed % 3);
  config.pause_epochs = seed % 2;
  config.epochs = 3 + seed % 3;
  return config;
}

TEST_P(EngineEquivalence, SlotEngineEpochScheduleIndexedMatchesReference) {
  const std::uint64_t seed = GetParam() + soak_offset();
  util::Rng rng(seed ^ 0xE90);
  const auto n = static_cast<net::NodeId>(10 + 4 * (seed % 3));
  const auto assignment = net::uniform_random_assignment(n, 6, 3, rng);
  const net::EpochTopologyProvider provider(mobility_config(seed, n),
                                            assignment, seed);
  const net::Network& network = provider.union_network();

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
  config.faults = make_fault_plan<std::uint64_t>(seed, n, 400.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;
  config.topology = &provider;
  config.epoch_length = 60 + 20 * (seed % 3);

  // Half the seeds run duty-cycled (the contact-tracing configuration):
  // off-slot quiescence must be identical on both reception paths too.
  sim::SyncPolicyFactory factory = (seed % 2 == 0)
                                       ? core::make_algorithm3(8)
                                       : core::make_algorithm2();
  if (seed % 2 == 0) {
    factory = core::with_duty_cycle(std::move(factory), 1, 1 + seed % 3);
  }

  sim::SlotEngineConfig indexed = config;
  indexed.indexed_reception = true;
  sim::SlotEngineConfig reference = config;
  reference.indexed_reception = false;

  const auto a = sim::run_slot_engine(network, factory, indexed);
  const auto b = sim::run_slot_engine(network, factory, reference);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completion_slot, b.completion_slot);
  EXPECT_EQ(a.slots_executed, b.slots_executed);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

TEST_P(EngineEquivalence, AsyncEngineEpochScheduleIndexedMatchesReference) {
  const std::uint64_t seed = GetParam() + soak_offset();
  util::Rng rng(seed ^ 0xE91);
  const auto n = static_cast<net::NodeId>(8 + 4 * (seed % 2));
  const auto assignment = net::uniform_random_assignment(n, 6, 3, rng);
  const net::EpochTopologyProvider provider(mobility_config(seed, n),
                                            assignment, seed);
  const net::Network& network = provider.union_network();

  sim::AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.slots_per_frame = 3;
  config.max_real_time = 400.0;
  config.max_frames_per_node = 4000;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) == 0;
  config.loss_probability = (seed % 3 == 2) ? 0.2 : 0.0;
  config.starts.assign(n, 0.0);
  for (auto& t : config.starts) t = rng.uniform_double() * 10.0;
  config.faults = make_fault_plan<double>(seed, n, 400.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;
  config.clock_builder = [](net::NodeId, std::uint64_t clock_seed) {
    sim::PiecewiseDriftClock::Config drift;
    drift.max_drift = 0.1;
    drift.min_segment = 10.0;
    drift.max_segment = 40.0;
    return std::make_unique<sim::PiecewiseDriftClock>(drift, clock_seed);
  };
  config.topology = &provider;
  config.epoch_length = 40.0 + 15.0 * static_cast<double>(seed % 2);

  const sim::AsyncPolicyFactory factory =
      (seed % 2 == 0) ? core::make_algorithm4(6)
                      : core::with_termination(core::make_algorithm4(4), 80);

  sim::AsyncEngineConfig indexed = config;
  indexed.indexed_reception = true;
  sim::AsyncEngineConfig reference = config;
  reference.indexed_reception = false;

  const auto a = sim::run_async_engine(network, factory, indexed);
  const auto b = sim::run_async_engine(network, factory, reference);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  EXPECT_DOUBLE_EQ(a.t_s, b.t_s);
  EXPECT_EQ(a.frames_started, b.frames_started);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

TEST_P(EngineEquivalence, MultiRadioEpochScheduleIndexedMatchesReference) {
  const std::uint64_t seed = GetParam() + soak_offset();
  util::Rng rng(seed ^ 0xE92);
  const auto n = static_cast<net::NodeId>(10 + 2 * (seed % 3));
  const auto assignment = net::uniform_random_assignment(n, 6, 3, rng);
  const net::EpochTopologyProvider provider(mobility_config(seed, n),
                                            assignment, seed);
  const net::Network& network = provider.union_network();

  sim::MultiRadioEngineConfig config;
  config.max_slots = 300;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) != 0;
  config.loss_probability = (seed % 3 == 1) ? 0.2 : 0.0;
  config.starts.assign(n, 0);
  for (auto& s : config.starts) s = rng.uniform(20);
  config.faults = make_fault_plan<std::uint64_t>(seed, n, 300.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;
  config.topology = &provider;
  config.epoch_length = 50 + 25 * (seed % 2);

  const sim::MultiRadioPolicyFactory factory =
      core::make_multi_radio_alg3(1 + static_cast<unsigned>(seed % 2), 8);

  sim::MultiRadioEngineConfig indexed = config;
  indexed.indexed_reception = true;
  sim::MultiRadioEngineConfig reference = config;
  reference.indexed_reception = false;

  const auto a = sim::run_multi_radio_engine(network, factory, indexed);
  const auto b = sim::run_multi_radio_engine(network, factory, reference);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completion_slot, b.completion_slot);
  EXPECT_EQ(a.slots_executed, b.slots_executed);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineEquivalence,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace m2hew
