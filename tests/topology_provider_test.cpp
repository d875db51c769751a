// Contract tests for net::EpochTopologyProvider (net/topology_provider.hpp).
//
// Structural properties first: a single-epoch schedule degenerates to the
// static case (the union IS epoch 0, every arc live), schedules are a pure
// function of (config, seed), and epoch e's live bits are exactly the
// unit-disk arcs at that epoch's random-waypoint positions.
//
// Then the load-bearing equivalence: a *frozen* multi-epoch schedule
// (speed 0, so every epoch carries the same link set) must be
// bit-identical to running the plain static engine on a network built
// from the same topology and assignment — across the slot, async and
// multi-radio engines and the SoA kernel, with randomized fault plans,
// loss, interference and start patterns. This proves the live-bit test is
// a pure filter: when it filters nothing, nothing changes — the dynamic
// path costs no correctness relative to the static one.
#include "net/topology_provider.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "core/algorithms.hpp"
#include "core/multi_radio.hpp"
#include "core/policy_spec.hpp"
#include "core/termination.hpp"
#include "net/channel_assign.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/topology_gen.hpp"
#include "sim/async_engine.hpp"
#include "sim/clock.hpp"
#include "sim/fault_plan.hpp"
#include "sim/multi_radio_engine.hpp"
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

[[nodiscard]] net::MobilityConfig mobile_config(net::NodeId n, double speed,
                                                std::size_t epochs) {
  net::MobilityConfig config;
  config.nodes = n;
  config.side = 1.0;
  config.radius = 0.45;
  config.speed_min = speed / 2.0;
  config.speed_max = speed;
  config.pause_epochs = 1;
  config.epochs = epochs;
  return config;
}

// Randomized fault plan over the first `horizon` time units, same recipe
// as engine_equivalence_test: the frozen-schedule identity must hold with
// ANY plan attached.
template <typename Time>
[[nodiscard]] sim::FaultPlan<Time> make_fault_plan(std::uint64_t seed,
                                                   net::NodeId /*n*/,
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
}

// Same directed arc set, independent of internal ordering.
void expect_same_arcs(const net::Network& a, const net::Network& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.topology().arc_count(), b.topology().arc_count());
  for (net::NodeId u = 0; u < a.node_count(); ++u) {
    const auto ia = a.in_links(u);
    const auto ib = b.in_links(u);
    ASSERT_EQ(ia.size(), ib.size()) << "in-degree of node " << u;
    for (std::size_t i = 0; i < ia.size(); ++i) {
      EXPECT_EQ(ia[i].from, ib[i].from) << "in-link " << i << " of " << u;
    }
  }
}

using ArcSet = std::vector<std::pair<net::NodeId, net::NodeId>>;

// The (from, to) pairs whose live bit is set in epoch e, sorted.
[[nodiscard]] ArcSet live_arcs(const net::EpochTopologyProvider& provider,
                               std::size_t e) {
  const net::Network& u_net = provider.union_network();
  const net::LiveArcs live = provider.live(e);
  ArcSet out;
  for (net::NodeId u = 0; u < u_net.node_count(); ++u) {
    const auto in = u_net.in_links(u);
    for (std::size_t k = 0; k < in.size(); ++k) {
      if (live(u_net.first_in_arc(u) + k)) out.emplace_back(in[k].from, u);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The arcs of a topology as (from, to) pairs, sorted.
[[nodiscard]] ArcSet sorted_arcs(const net::Topology& topology) {
  ArcSet out(topology.arcs().begin(), topology.arcs().end());
  std::sort(out.begin(), out.end());
  return out;
}

// Epoch e's topology recomputed from the mobility model's positions.
[[nodiscard]] std::vector<net::Topology> model_epochs(
    const net::MobilityConfig& config, std::uint64_t seed) {
  net::RandomWaypointModel model(config, seed);
  std::vector<net::Topology> epochs;
  for (std::size_t e = 0; e < config.epochs; ++e) {
    if (e > 0) model.advance_epoch();
    epochs.push_back(
        net::unit_disk_topology(model.positions(), config.side, config.radius));
  }
  return epochs;
}

TEST(EpochTopologyProvider, SingleEpochUnionIsEpochZero) {
  util::Rng rng(5);
  const auto assignment = net::uniform_random_assignment(12, 6, 3, rng);
  const net::MobilityConfig config = mobile_config(12, 0.1, /*epochs=*/1);
  const net::EpochTopologyProvider provider(config, assignment, 7);
  EXPECT_EQ(provider.epoch_count(), 1u);
  // The static degenerate case: the union is epoch 0's topology in its
  // own arc order, every arc is live, and engines take the zero-cost path.
  const net::Topology epoch0 = model_epochs(config, 7).front();
  const net::Network& u_net = provider.union_network();
  ASSERT_EQ(u_net.topology().arc_count(), epoch0.arc_count());
  for (std::size_t i = 0; i < epoch0.arc_count(); ++i) {
    EXPECT_EQ(u_net.topology().arcs()[i], epoch0.arcs()[i]) << "arc " << i;
  }
  for (std::size_t arc = 0; arc < u_net.arc_count(); ++arc) {
    EXPECT_TRUE(provider.live(0)(arc)) << "arc " << arc;
  }
  sim::SlotEngineConfig engine;
  engine.topology = &provider;
  EXPECT_EQ(sim::topology_provider_of(engine, u_net), nullptr);
}

TEST(EpochTopologyProvider, ScheduleIsAPureFunctionOfConfigAndSeed) {
  util::Rng rng(11);
  const auto assignment = net::uniform_random_assignment(24, 6, 3, rng);
  const net::MobilityConfig config = mobile_config(24, 0.15, 6);

  const net::EpochTopologyProvider a(config, assignment, 99);
  const net::EpochTopologyProvider b(config, assignment, 99);
  ASSERT_EQ(a.epoch_count(), b.epoch_count());
  for (std::size_t e = 0; e < a.epoch_count(); ++e) {
    EXPECT_EQ(live_arcs(a, e), live_arcs(b, e)) << "epoch " << e;
  }
  expect_same_arcs(a.union_network(), b.union_network());

  // A different seed places nodes elsewhere.
  const net::EpochTopologyProvider c(config, assignment, 100);
  EXPECT_NE(live_arcs(a, 0), live_arcs(c, 0));
}

TEST(EpochTopologyProvider, UnionContainsEveryEpochArc) {
  util::Rng rng(17);
  const auto assignment = net::uniform_random_assignment(32, 6, 3, rng);
  const net::MobilityConfig config = mobile_config(32, 0.2, 8);
  const net::EpochTopologyProvider provider(config, assignment, 21);
  const std::vector<net::Topology> epochs = model_epochs(config, 21);
  ASSERT_EQ(provider.epoch_count(), epochs.size());
  ArcSet every;
  for (std::size_t e = 0; e < provider.epoch_count(); ++e) {
    const ArcSet expected = sorted_arcs(epochs[e]);
    EXPECT_EQ(live_arcs(provider, e), expected) << "epoch " << e;
    every.insert(every.end(), expected.begin(), expected.end());
  }
  // The union holds nothing beyond the epochs' arcs.
  std::sort(every.begin(), every.end());
  every.erase(std::unique(every.begin(), every.end()), every.end());
  EXPECT_EQ(sorted_arcs(provider.union_network().topology()), every);
  // Past the last epoch the schedule stays on it.
  EXPECT_EQ(live_arcs(provider, provider.epoch_count() + 3),
            live_arcs(provider, provider.epoch_count() - 1));
}

TEST(EpochTopologyProvider, ZeroSpeedFreezesTheSchedule) {
  util::Rng rng(23);
  const auto assignment = net::uniform_random_assignment(20, 6, 3, rng);
  const net::EpochTopologyProvider provider(mobile_config(20, 0.0, 5),
                                            assignment, 31);
  for (std::size_t e = 1; e < provider.epoch_count(); ++e) {
    EXPECT_EQ(live_arcs(provider, e), live_arcs(provider, 0)) << "epoch " << e;
  }
  EXPECT_EQ(sorted_arcs(provider.union_network().topology()),
            live_arcs(provider, 0));
}

// ---------------------------------------------------------------------------
// Frozen-schedule equivalence: a speed-0 multi-epoch provider (the union
// is built from the epochs' edges, not from epoch 0's topology, and the
// engines take their masked path) must match the plain static engine bit
// for bit.

struct FrozenFixture {
  std::unique_ptr<net::EpochTopologyProvider> provider;
  std::unique_ptr<net::Network> static_network;
  net::NodeId n = 0;
  std::uint64_t epoch_length = 0;
};

[[nodiscard]] FrozenFixture make_frozen(std::uint64_t seed) {
  FrozenFixture f;
  util::Rng rng(seed ^ 0xF80);
  f.n = static_cast<net::NodeId>(12 + 4 * (seed % 3));
  const auto assignment =
      (seed % 3 == 0)
          ? net::variable_size_random_assignment(f.n, 7, 2, 5, rng)
          : net::uniform_random_assignment(f.n, 6, 3, rng);
  const net::MobilityConfig config = mobile_config(f.n, 0.0, 2 + seed % 3);
  f.provider =
      std::make_unique<net::EpochTopologyProvider>(config, assignment, seed);
  // Same arcs, same assignment, but a Network built the static way.
  f.static_network = std::make_unique<net::Network>(
      std::move(model_epochs(config, seed).front()), assignment);
  f.epoch_length = 60 + 20 * (seed % 3);
  return f;
}

class FrozenScheduleEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrozenScheduleEquivalence, SlotEngineMatchesStatic) {
  const std::uint64_t seed = GetParam() + soak_offset();
  const FrozenFixture f = make_frozen(seed);
  util::Rng rng(seed ^ 0x51);

  sim::SlotEngineConfig config;
  config.max_slots = 400;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) != 0;
  config.loss_probability = (seed % 3 == 1) ? 0.25 : 0.0;
  config.starts.assign(f.n, 0);
  for (auto& s : config.starts) s = rng.uniform(25);
  config.faults = make_fault_plan<std::uint64_t>(seed, f.n, 400.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;

  const sim::SyncPolicyFactory factory =
      (seed % 2 == 0) ? core::make_algorithm3(8)
                      : core::with_termination(core::make_algorithm2(), 80);

  sim::SlotEngineConfig mobile = config;
  mobile.topology = f.provider.get();
  mobile.epoch_length = f.epoch_length;

  const auto a =
      sim::run_slot_engine(f.provider->union_network(), factory, mobile);
  const auto b = sim::run_slot_engine(*f.static_network, factory, config);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completion_slot, b.completion_slot);
  EXPECT_EQ(a.slots_executed, b.slots_executed);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(*f.static_network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

TEST_P(FrozenScheduleEquivalence, AsyncEngineMatchesStatic) {
  const std::uint64_t seed = GetParam() + soak_offset();
  const FrozenFixture f = make_frozen(seed);
  util::Rng rng(seed ^ 0xA5);

  sim::AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.slots_per_frame = 3;
  config.max_real_time = 400.0;
  config.max_frames_per_node = 4000;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) == 0;
  config.loss_probability = (seed % 3 == 2) ? 0.2 : 0.0;
  config.starts.assign(f.n, 0.0);
  for (auto& t : config.starts) t = rng.uniform_double() * 10.0;
  config.faults = make_fault_plan<double>(seed, f.n, 400.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;
  config.clock_builder = [](net::NodeId, std::uint64_t clock_seed) {
    sim::PiecewiseDriftClock::Config drift;
    drift.max_drift = 0.1;
    drift.min_segment = 10.0;
    drift.max_segment = 40.0;
    return std::make_unique<sim::PiecewiseDriftClock>(drift, clock_seed);
  };

  const sim::AsyncPolicyFactory factory = core::make_algorithm4(6);

  sim::AsyncEngineConfig mobile = config;
  mobile.topology = f.provider.get();
  mobile.epoch_length = static_cast<double>(f.epoch_length);

  const auto a =
      sim::run_async_engine(f.provider->union_network(), factory, mobile);
  const auto b = sim::run_async_engine(*f.static_network, factory, config);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  EXPECT_DOUBLE_EQ(a.t_s, b.t_s);
  EXPECT_EQ(a.frames_started, b.frames_started);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(*f.static_network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

TEST_P(FrozenScheduleEquivalence, MultiRadioEngineMatchesStatic) {
  const std::uint64_t seed = GetParam() + soak_offset();
  const FrozenFixture f = make_frozen(seed);
  util::Rng rng(seed ^ 0x3D);

  sim::MultiRadioEngineConfig config;
  config.max_slots = 300;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) != 0;
  config.loss_probability = (seed % 3 == 1) ? 0.2 : 0.0;
  config.starts.assign(f.n, 0);
  for (auto& s : config.starts) s = rng.uniform(20);
  config.faults = make_fault_plan<std::uint64_t>(seed, f.n, 300.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;

  const sim::MultiRadioPolicyFactory factory =
      core::make_multi_radio_alg3(2, 8);

  sim::MultiRadioEngineConfig mobile = config;
  mobile.topology = f.provider.get();
  mobile.epoch_length = f.epoch_length;

  const auto a = sim::run_multi_radio_engine(f.provider->union_network(),
                                             factory, mobile);
  const auto b = sim::run_multi_radio_engine(*f.static_network, factory,
                                             config);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completion_slot, b.completion_slot);
  EXPECT_EQ(a.slots_executed, b.slots_executed);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(*f.static_network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

TEST_P(FrozenScheduleEquivalence, SoaKernelMatchesStatic) {
  const std::uint64_t seed = GetParam() + soak_offset();
  const FrozenFixture f = make_frozen(seed);
  util::Rng rng(seed ^ 0x50A);

  sim::SlotEngineConfig config;
  config.max_slots = 400;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) != 0;
  config.loss_probability = (seed % 3 == 1) ? 0.25 : 0.0;
  config.starts.assign(f.n, 0);
  for (auto& s : config.starts) s = rng.uniform(25);
  config.faults = make_fault_plan<std::uint64_t>(seed, f.n, 400.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;

  const core::SyncPolicySpec spec =
      (seed % 2 == 0) ? core::SyncPolicySpec::algorithm3(8)
                      : core::SyncPolicySpec::algorithm2();

  sim::SlotEngineConfig mobile = config;
  mobile.topology = f.provider.get();
  mobile.epoch_length = f.epoch_length;

  const net::Network& u_net = f.provider->union_network();
  const auto a = sim::run_soa_slot_kernel(
      u_net, core::build_soa_policy_table(u_net, spec), mobile);
  const auto b = sim::run_soa_slot_kernel(
      *f.static_network,
      core::build_soa_policy_table(*f.static_network, spec), config);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completion_slot, b.completion_slot);
  EXPECT_EQ(a.slots_executed, b.slots_executed);
  EXPECT_EQ(a.receptions, b.receptions);
  EXPECT_EQ(a.covered_links, b.covered_links);
  for (const net::Link link : f.static_network->links()) {
    ASSERT_EQ(a.is_covered(link), b.is_covered(link))
        << "link " << link.from << "->" << link.to;
    if (a.is_covered(link)) {
      EXPECT_DOUBLE_EQ(a.first_coverage_slot(link),
                       b.first_coverage_slot(link))
          << "link " << link.from << "->" << link.to;
    }
  }
  expect_same_robustness(a.robustness, b.robustness);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FrozenScheduleEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace m2hew
