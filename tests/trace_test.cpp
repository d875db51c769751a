#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/adaptive.hpp"
#include "core/algorithms.hpp"
#include "core/trust.hpp"
#include "net/topology_gen.hpp"
#include "sim/async_engine.hpp"
#include "sim/slot_engine.hpp"

namespace m2hew::sim {
namespace {

TEST(Trace, RecordAndQuery) {
  Trace trace;
  trace.record(1, 0, Mode::kTransmit, 3);
  trace.record(0, 0, Mode::kReceive, 2);
  trace.record(1, 1, Mode::kQuiet, net::kInvalidChannel);
  EXPECT_EQ(trace.size(), 3u);

  const auto node1 = trace.for_node(1);
  ASSERT_EQ(node1.size(), 2u);
  EXPECT_EQ(node1[0].index, 0u);
  EXPECT_EQ(node1[0].mode, Mode::kTransmit);
  EXPECT_EQ(node1[0].channel, 3u);
  EXPECT_EQ(node1[1].mode, Mode::kQuiet);

  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(Trace, TimelineRendering) {
  Trace trace;
  trace.record(0, 0, Mode::kTransmit, 5);
  trace.record(0, 1, Mode::kReceive, 0);
  trace.record(1, 0, Mode::kQuiet, net::kInvalidChannel);
  const std::string out = trace.render_timeline(0, 3);
  EXPECT_NE(out.find("node   0 |"), std::string::npos);
  EXPECT_NE(out.find("T5"), std::string::npos);
  EXPECT_NE(out.find("R0"), std::string::npos);
  EXPECT_NE(out.find('.'), std::string::npos);  // quiet and empty cells
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Trace, TimelineWindowFiltersIndices) {
  Trace trace;
  trace.record(0, 0, Mode::kTransmit, 1);
  trace.record(0, 10, Mode::kTransmit, 2);
  const std::string out = trace.render_timeline(5, 3);
  EXPECT_EQ(out.find("T1"), std::string::npos);
  EXPECT_EQ(out.find("T2"), std::string::npos);
}

TEST(Trace, EmptyTraceRendersNothing) {
  const Trace trace;
  EXPECT_TRUE(trace.render_timeline(0, 10).empty());
}

TEST(TracedSyncPolicy, RecordsEverySlotOfEveryNode) {
  const net::Network network(
      net::make_clique(3),
      std::vector<net::ChannelSet>(3, net::ChannelSet(2, {0, 1})));
  Trace trace;
  SlotEngineConfig config;
  config.max_slots = 25;
  config.stop_when_complete = false;
  const auto result = run_slot_engine(
      network, traced(core::make_algorithm3(4), trace), config);
  (void)result;
  EXPECT_EQ(trace.size(), 3u * 25u);
  for (net::NodeId u = 0; u < 3; ++u) {
    const auto entries = trace.for_node(u);
    ASSERT_EQ(entries.size(), 25u);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].index, i);
      EXPECT_TRUE(network.available(u).contains(entries[i].channel));
    }
  }
}

TEST(TracedSyncPolicy, TraceMatchesEngineBehaviour) {
  // The traced run must behave identically to the untraced run (the
  // decorator may not perturb the RNG stream).
  const net::Network network(
      net::make_clique(4),
      std::vector<net::ChannelSet>(4, net::ChannelSet(2, {0, 1})));
  SlotEngineConfig config;
  config.max_slots = 100000;
  config.seed = 42;
  const auto plain =
      run_slot_engine(network, core::make_algorithm3(4), config);
  Trace trace;
  const auto traced_run = run_slot_engine(
      network, traced(core::make_algorithm3(4), trace), config);
  ASSERT_TRUE(plain.complete);
  ASSERT_TRUE(traced_run.complete);
  EXPECT_EQ(plain.completion_slot, traced_run.completion_slot);
}

void expect_same_run(const SlotEngineResult& plain,
                     const SlotEngineResult& traced_run) {
  EXPECT_EQ(plain.complete, traced_run.complete);
  EXPECT_EQ(plain.completion_slot, traced_run.completion_slot);
  EXPECT_EQ(plain.slots_executed, traced_run.slots_executed);
  EXPECT_EQ(plain.state.reception_count(), traced_run.state.reception_count());
  EXPECT_EQ(plain.robustness.fake_entries, traced_run.robustness.fake_entries);
  EXPECT_EQ(plain.robustness.isolated_fakes,
            traced_run.robustness.isolated_fakes);
  EXPECT_EQ(plain.robustness.honest_isolated,
            traced_run.robustness.honest_isolated);
}

TEST(TracedSyncPolicy, ForwardsListenOutcomes) {
  // The adaptive policy steers on listen outcomes; a decorator that drops
  // them traces a run that never completes.
  const net::Network network(
      net::make_clique(40),
      std::vector<net::ChannelSet>(40, net::ChannelSet(2, {0, 1})));
  SlotEngineConfig config;
  config.max_slots = 100'000;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    config.seed = seed;
    const auto plain = run_slot_engine(network, core::make_adaptive(), config);
    Trace trace;
    const auto traced_run =
        run_slot_engine(network, traced(core::make_adaptive(), trace), config);
    ASSERT_TRUE(plain.complete) << "seed " << seed;
    expect_same_run(plain, traced_run);
  }
}

TEST(TracedSyncPolicy, ForwardsTheAdmissionGate) {
  // Under a Byzantine plan the trust wrapper isolates fakes through
  // admit_neighbor; tracing it must not bypass the gate.
  const net::Network network(
      net::make_clique(8),
      std::vector<net::ChannelSet>(8, net::ChannelSet::full(4)));
  SlotEngineConfig config;
  config.max_slots = 6'000;
  config.seed = 61;
  config.faults.adversary.fraction = 0.5;
  config.faults.adversary.attack = AdversaryAttack::kByzantine;
  config.faults.adversary.byzantine_tx = 0.9;
  core::TrustConfig trust;
  trust.enabled = true;
  trust.threshold = 0.3;
  trust.rate_penalty = 0.4;
  trust.rate_window = 64;
  trust.max_per_window = 8;
  trust.block_slots = 100'000;
  trust.entry_window = 200'000;

  const auto plain = run_slot_engine(
      network, core::with_trust(core::make_algorithm3(16), trust), config);
  Trace trace;
  const auto traced_run = run_slot_engine(
      network,
      traced(core::with_trust(core::make_algorithm3(16), trust), trace),
      config);
  ASSERT_GT(plain.robustness.isolated_fakes, 0u);
  expect_same_run(plain, traced_run);
}

TEST(TracedAsyncPolicy, RecordsFrames) {
  const net::Network network(
      net::make_clique(2),
      std::vector<net::ChannelSet>(2, net::ChannelSet(2, {0, 1})));
  Trace trace;
  AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.max_frames_per_node = 12;
  config.max_real_time = 1e6;
  config.stop_when_complete = false;
  (void)run_async_engine(network, traced(core::make_algorithm4(4), trace),
                         config);
  EXPECT_EQ(trace.size(), 2u * 12u);
}

}  // namespace
}  // namespace m2hew::sim
