#include "core/multi_radio.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/algorithms.hpp"
#include "net/topology_gen.hpp"
#include "runner/trials.hpp"
#include "sim/slot_engine.hpp"
#include "util/stats.hpp"

namespace m2hew {
namespace {

// Scripted multi-radio policy replaying fixed per-slot action vectors.
class ScriptedMultiPolicy final : public sim::MultiRadioPolicy {
 public:
  explicit ScriptedMultiPolicy(
      std::vector<std::vector<sim::SlotAction>> script)
      : script_(std::move(script)) {}
  std::vector<sim::SlotAction> next_slot(util::Rng&) override {
    const auto& step = script_[std::min(index_, script_.size() - 1)];
    ++index_;
    return step;
  }
  unsigned radio_count() const override {
    return static_cast<unsigned>(script_.front().size());
  }

 private:
  std::vector<std::vector<sim::SlotAction>> script_;
  std::size_t index_ = 0;
};

[[nodiscard]] sim::MultiRadioPolicyFactory scripted(
    std::vector<std::vector<std::vector<sim::SlotAction>>> per_node) {
  auto shared = std::make_shared<decltype(per_node)>(std::move(per_node));
  return [shared](const net::Network&, net::NodeId u)
             -> std::unique_ptr<sim::MultiRadioPolicy> {
    return std::make_unique<ScriptedMultiPolicy>((*shared)[u]);
  };
}

constexpr sim::SlotAction kTx0{sim::Mode::kTransmit, 0};
constexpr sim::SlotAction kTx1{sim::Mode::kTransmit, 1};
constexpr sim::SlotAction kRx0{sim::Mode::kReceive, 0};
constexpr sim::SlotAction kRx1{sim::Mode::kReceive, 1};
constexpr sim::SlotAction kQuiet{sim::Mode::kQuiet, net::kInvalidChannel};

[[nodiscard]] net::Network pair_net() {
  net::Topology t(2);
  t.add_edge(0, 1);
  return net::Network(std::move(t), std::vector<net::ChannelSet>(
                                        2, net::ChannelSet(2, {0, 1})));
}

TEST(MultiRadioEngine, ParallelReceptionOnTwoChannels) {
  // Node 0 transmits on both channels simultaneously; node 1 listens on
  // both: the link (0,1) is covered in slot 0 via either radio, and node
  // 1's radios do not interfere with each other.
  const net::Network network = pair_net();
  sim::MultiRadioEngineConfig config;
  config.max_slots = 1;
  config.stop_when_complete = false;
  const auto result = sim::run_multi_radio_engine(
      network, scripted({{{kTx0, kTx1}}, {{kRx0, kRx1}}}), config);
  EXPECT_TRUE(result.state.is_covered({0, 1}));
}

TEST(MultiRadioEngine, SimultaneousBidirectionalDiscovery) {
  // Full duplex across radios: each node transmits on one channel and
  // listens on the other — both directions covered in a single slot,
  // impossible with one transceiver.
  const net::Network network = pair_net();
  sim::MultiRadioEngineConfig config;
  config.max_slots = 1;
  config.stop_when_complete = false;
  const auto result = sim::run_multi_radio_engine(
      network, scripted({{{kTx0, kRx1}}, {{kRx0, kTx1}}}), config);
  EXPECT_TRUE(result.state.is_covered({0, 1}));
  EXPECT_TRUE(result.state.is_covered({1, 0}));
  EXPECT_TRUE(result.complete);
}

TEST(MultiRadioEngine, CollisionsAcrossSendersStillHappen) {
  net::Topology t(3);
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  const net::Network network(
      std::move(t),
      std::vector<net::ChannelSet>(3, net::ChannelSet(2, {0, 1})));
  sim::MultiRadioEngineConfig config;
  config.max_slots = 1;
  config.stop_when_complete = false;
  // Both neighbors transmit on channel 0 while the hub listens there.
  const auto result = sim::run_multi_radio_engine(
      network,
      scripted({{{kRx0, kQuiet}}, {{kTx0, kQuiet}}, {{kTx0, kQuiet}}}),
      config);
  EXPECT_EQ(result.state.covered_links(), 0u);
}

TEST(MultiRadioEngineDeath, DuplicateChannelAcrossRadiosAborts) {
  const net::Network network = pair_net();
  sim::MultiRadioEngineConfig config;
  config.max_slots = 1;
  EXPECT_DEATH(
      (void)sim::run_multi_radio_engine(
          network, scripted({{{kTx0, kRx0}}, {{kRx1, kQuiet}}}), config),
      "CHECK failed");
}

TEST(MultiRadioAlg3Policy, StripesPartitionTheChannelSet) {
  const net::ChannelSet a(8, {0, 1, 2, 3, 4, 5, 6, 7});
  core::MultiRadioAlg3Policy policy(a, 3, 8);
  std::size_t total = 0;
  for (unsigned r = 0; r < 3; ++r) {
    for (const net::ChannelId c : policy.stripe(r)) {
      EXPECT_EQ(c % 3, r);
      ++total;
    }
  }
  EXPECT_EQ(total, 8u);
}

TEST(MultiRadioAlg3Policy, EmptyStripeStaysQuiet) {
  const net::ChannelSet a(8, {0, 2, 4});  // all even: stripe 1 of 2 empty
  core::MultiRadioAlg3Policy policy(a, 2, 4);
  EXPECT_TRUE(policy.stripe(1).empty());
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto actions = policy.next_slot(rng);
    ASSERT_EQ(actions.size(), 2u);
    EXPECT_EQ(actions[1].mode, sim::Mode::kQuiet);
    EXPECT_NE(actions[0].mode, sim::Mode::kQuiet);
    EXPECT_EQ(actions[0].channel % 2, 0u);
  }
}

TEST(MultiRadioAlg3Policy, SingleRadioEqualsAlgorithm3Distribution) {
  const net::ChannelSet a(4, {0, 1, 2, 3});
  core::MultiRadioAlg3Policy policy(a, 1, 16);
  util::Rng rng(2);
  int tx = 0;
  constexpr int kSlots = 40000;
  for (int i = 0; i < kSlots; ++i) {
    const auto actions = policy.next_slot(rng);
    if (actions[0].mode == sim::Mode::kTransmit) ++tx;
  }
  // p = min(1/2, 4/16) = 0.25, the Algorithm 3 value.
  EXPECT_NEAR(tx / static_cast<double>(kSlots), 0.25, 0.01);
}

TEST(MultiRadioIntegration, DiscoversAndMatchesGroundTruth) {
  const net::Network network(
      net::make_clique(8),
      std::vector<net::ChannelSet>(8, net::ChannelSet::full(8)));
  sim::MultiRadioEngineConfig config;
  config.max_slots = 500000;
  config.seed = 3;
  const auto result = sim::run_multi_radio_engine(
      network, core::make_multi_radio_alg3(4, 8), config);
  ASSERT_TRUE(result.complete);
  for (net::NodeId u = 0; u < network.node_count(); ++u) {
    EXPECT_TRUE(result.state.table_matches_ground_truth(u));
  }
}

TEST(MultiRadioIntegration, MoreRadiosAreFaster) {
  const net::Network network(
      net::make_clique(10),
      std::vector<net::ChannelSet>(10, net::ChannelSet::full(8)));
  auto mean_slots = [&](unsigned radios) {
    util::RunningStats stats;
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
      sim::MultiRadioEngineConfig config;
      config.max_slots = 1'000'000;
      config.seed = seed;
      const auto result = sim::run_multi_radio_engine(
          network, core::make_multi_radio_alg3(radios, 10), config);
      EXPECT_TRUE(result.complete);
      stats.add(static_cast<double>(result.completion_slot));
    }
    return stats.mean();
  };
  const double one = mean_slots(1);
  const double four = mean_slots(4);
  EXPECT_LT(four, one / 1.5) << "R=4 should be well under R=1";
}

TEST(MultiRadioDeath, InvalidConstruction) {
  const net::ChannelSet a(4, {0});
  EXPECT_DEATH(core::MultiRadioAlg3Policy(a, 0, 4), "CHECK failed");
  EXPECT_DEATH(core::MultiRadioAlg3Policy(a, 1, 0), "CHECK failed");
  const net::ChannelSet empty(4);
  EXPECT_DEATH(core::MultiRadioAlg3Policy(empty, 1, 4), "CHECK failed");
}

TEST(MultiRadioEngineDeath, InvalidConfigAborts) {
  const net::Network network = pair_net();
  const auto factory = scripted({{{kTx0, kQuiet}}, {{kRx0, kQuiet}}});
  {
    sim::MultiRadioEngineConfig config;
    config.loss_probability = 1.0;  // would loop forever; [0,1) only
    EXPECT_DEATH(
        (void)sim::run_multi_radio_engine(network, factory, config),
        "CHECK failed");
  }
  {
    sim::MultiRadioEngineConfig config;
    config.starts = {0, 0, 0};  // 3 entries for a 2-node network
    EXPECT_DEATH(
        (void)sim::run_multi_radio_engine(network, factory, config),
        "CHECK failed");
  }
  {
    sim::MultiRadioEngineConfig config;
    config.max_slots = 0;
    EXPECT_DEATH(
        (void)sim::run_multi_radio_engine(network, factory, config),
        "CHECK failed");
  }
}

TEST(MultiRadioEngine, MessageLossDropsSomeReceptions) {
  // Node 0 transmits every slot on channel 0; node 1 always listens there.
  // Without loss every slot delivers; with q = 0.5 the delivered count
  // must land strictly between 0 and the slot count (the chance of either
  // extreme is 2^-2000).
  const net::Network network = pair_net();
  const auto factory = scripted({{{kTx0, kQuiet}}, {{kRx0, kQuiet}}});
  sim::MultiRadioEngineConfig config;
  config.max_slots = 2000;
  config.stop_when_complete = false;

  const auto reliable = sim::run_multi_radio_engine(network, factory, config);
  EXPECT_EQ(reliable.state.reception_count(), 2000u);

  config.loss_probability = 0.5;
  const auto lossy = sim::run_multi_radio_engine(network, factory, config);
  EXPECT_GT(lossy.state.reception_count(), 0u);
  EXPECT_LT(lossy.state.reception_count(), 2000u);
  EXPECT_TRUE(lossy.state.is_covered({0, 1}));
}

TEST(MultiRadioEngine, TransmitterSideInterferenceSuppresses) {
  // A jammed transmitter vacates the channel: its radio idles (counted as
  // quiet) and nothing is delivered.
  const net::Network network = pair_net();
  const auto factory = scripted({{{kTx0, kQuiet}}, {{kRx0, kQuiet}}});
  sim::MultiRadioEngineConfig config;
  config.max_slots = 5;
  config.stop_when_complete = false;
  config.interference = [](std::uint64_t, net::NodeId node, net::ChannelId) {
    return node == 0;  // PU active at the transmitter only
  };
  const auto result = sim::run_multi_radio_engine(network, factory, config);
  EXPECT_EQ(result.state.covered_links(), 0u);
  EXPECT_EQ(result.activity[0].transmit, 0u);
  EXPECT_EQ(result.activity[0].quiet, 10u);  // both radios, 5 slots
}

TEST(MultiRadioEngine, ListenerSideInterferenceDrownsChannel) {
  // PU noise at the listener: the transmitter is unaffected (its slots
  // count as transmit) but the listener hears only noise.
  const net::Network network = pair_net();
  const auto factory = scripted({{{kTx0, kQuiet}}, {{kRx0, kQuiet}}});
  sim::MultiRadioEngineConfig config;
  config.max_slots = 5;
  config.stop_when_complete = false;
  config.interference = [](std::uint64_t, net::NodeId node, net::ChannelId) {
    return node == 1;
  };
  const auto result = sim::run_multi_radio_engine(network, factory, config);
  EXPECT_EQ(result.state.covered_links(), 0u);
  EXPECT_EQ(result.activity[0].transmit, 5u);
}

TEST(MultiRadioEngine, StartScheduleGatesPollingAndActivity) {
  // Node 0 starts at slot 3: before that it is silent (no receptions at
  // node 1) and its radios are off (no activity counted).
  const net::Network network = pair_net();
  const auto factory = scripted({{{kTx0, kQuiet}}, {{kRx0, kQuiet}}});
  sim::MultiRadioEngineConfig config;
  config.max_slots = 10;
  config.stop_when_complete = false;
  config.starts = {3, 0};
  const auto result = sim::run_multi_radio_engine(network, factory, config);
  ASSERT_TRUE(result.state.is_covered({0, 1}));
  EXPECT_DOUBLE_EQ(result.state.first_coverage_time({0, 1}), 3.0);
  EXPECT_EQ(result.state.reception_count(), 7u);
  EXPECT_EQ(result.activity[0].total(), 14u);  // 7 slots x 2 radios
  EXPECT_EQ(result.activity[1].total(), 20u);
}

// Records every feedback callback with its radio index.
class ProbeMultiPolicy final : public sim::MultiRadioPolicy {
 public:
  struct Feedback {
    std::vector<std::pair<unsigned, net::NodeId>> receptions;
    std::vector<std::pair<unsigned, sim::ListenOutcome>> outcomes;
  };

  ProbeMultiPolicy(std::vector<sim::SlotAction> actions,
                   std::shared_ptr<Feedback> feedback)
      : actions_(std::move(actions)), feedback_(std::move(feedback)) {}

  std::vector<sim::SlotAction> next_slot(util::Rng&) override {
    return actions_;
  }
  unsigned radio_count() const override {
    return static_cast<unsigned>(actions_.size());
  }
  void observe_reception(unsigned radio, net::NodeId from,
                         bool first_time) override {
    (void)first_time;
    feedback_->receptions.emplace_back(radio, from);
  }
  void observe_listen_outcome(unsigned radio,
                              sim::ListenOutcome outcome) override {
    feedback_->outcomes.emplace_back(radio, outcome);
  }

 private:
  std::vector<sim::SlotAction> actions_;
  std::shared_ptr<Feedback> feedback_;
};

TEST(MultiRadioEngine, FeedbackCarriesRadioIndex) {
  // Node 1 listens on channel 0 (radio 0) and channel 1 (radio 1); node 0
  // transmits on channel 0 only. Radio 0 must report a clear reception
  // from node 0, radio 1 silence.
  const net::Network network = pair_net();
  auto feedback = std::make_shared<ProbeMultiPolicy::Feedback>();
  const auto factory = [&feedback](const net::Network&, net::NodeId u)
      -> std::unique_ptr<sim::MultiRadioPolicy> {
    if (u == 0) {
      return std::make_unique<ProbeMultiPolicy>(
          std::vector<sim::SlotAction>{kTx0, kQuiet}, feedback);
    }
    return std::make_unique<ProbeMultiPolicy>(
        std::vector<sim::SlotAction>{kRx0, kRx1}, feedback);
  };
  sim::MultiRadioEngineConfig config;
  config.max_slots = 1;
  config.stop_when_complete = false;
  const auto result = sim::run_multi_radio_engine(network, factory, config);
  EXPECT_TRUE(result.state.is_covered({0, 1}));
  ASSERT_EQ(feedback->receptions.size(), 1u);
  EXPECT_EQ(feedback->receptions[0], (std::pair<unsigned, net::NodeId>{0, 0}));
  ASSERT_EQ(feedback->outcomes.size(), 2u);
  EXPECT_EQ(feedback->outcomes[0],
            (std::pair<unsigned, sim::ListenOutcome>{
                0, sim::ListenOutcome::kClear}));
  EXPECT_EQ(feedback->outcomes[1],
            (std::pair<unsigned, sim::ListenOutcome>{
                1, sim::ListenOutcome::kSilence}));
}

TEST(MultiRadioEngine, IndexedMatchesReferenceWithManyRadios) {
  // The indexed/reference bit-identity contract must hold for R > 1 too
  // (the single-radio case is covered by the engine-parity test).
  const net::Network network(
      net::make_clique(8),
      std::vector<net::ChannelSet>(8, net::ChannelSet::full(8)));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::MultiRadioEngineConfig config;
    config.max_slots = 3000;
    config.seed = seed;
    config.loss_probability = 0.2;
    config.starts = {0, 1, 2, 3, 4, 5, 6, 7};
    config.interference = [](std::uint64_t slot, net::NodeId node,
                             net::ChannelId c) {
      return (slot + node + c) % 5 == 0;
    };
    sim::MultiRadioEngineConfig reference = config;
    reference.indexed_reception = false;

    const auto a = sim::run_multi_radio_engine(
        network, core::make_multi_radio_alg3(3, 8), config);
    const auto b = sim::run_multi_radio_engine(
        network, core::make_multi_radio_alg3(3, 8), reference);
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.completion_slot, b.completion_slot);
    EXPECT_EQ(a.state.reception_count(), b.state.reception_count());
    for (const net::Link link : network.links()) {
      ASSERT_EQ(a.state.is_covered(link), b.state.is_covered(link));
      if (a.state.is_covered(link)) {
        EXPECT_DOUBLE_EQ(a.state.first_coverage_time(link),
                         b.state.first_coverage_time(link));
      }
    }
  }
}

TEST(MultiRadioEngine, ScatterEdgeCasesWithTwoRadios) {
  // Hits are keyed per listening radio. Node 2 listens on both channels:
  // radio 0 hears node 0 cleanly on channel 0 while radio 1 sees a
  // collision of nodes 1 and 3 on channel 1. Node 4 transmits on both
  // radios and reaches node 5 (listening on its radio 1, channel 0) and
  // node 6 (radio 0, channel 1) in the same slot. Both reception paths
  // must report the same feedback and on_reception sequences.
  net::Topology t(7);
  t.add_edge(0, 2);
  t.add_edge(1, 2);
  t.add_edge(3, 2);
  t.add_edge(4, 5);
  t.add_edge(4, 6);
  const net::Network network(
      std::move(t),
      std::vector<net::ChannelSet>(7, net::ChannelSet(2, {0, 1})));
  const std::vector<std::vector<sim::SlotAction>> actions = {
      {kTx0, kQuiet}, {kTx1, kQuiet}, {kRx0, kRx1}, {kQuiet, kTx1},
      {kTx0, kTx1},   {kQuiet, kRx0}, {kRx1, kQuiet}};
  using Event = std::tuple<std::uint64_t, net::NodeId, net::NodeId,
                           net::ChannelId>;
  std::vector<Event> expected;
  for (std::uint64_t slot = 0; slot < 2; ++slot) {
    expected.emplace_back(slot, 0, 2, 0);
    expected.emplace_back(slot, 4, 5, 0);
    expected.emplace_back(slot, 4, 6, 1);
  }
  const std::vector<std::pair<unsigned, sim::ListenOutcome>> outcomes = {
      {0, sim::ListenOutcome::kClear}, {1, sim::ListenOutcome::kCollision},
      {1, sim::ListenOutcome::kClear}, {0, sim::ListenOutcome::kClear}};

  for (const bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "scatter" : "reference");
    auto feedback = std::make_shared<ProbeMultiPolicy::Feedback>();
    const auto factory = [&](const net::Network&, net::NodeId u)
        -> std::unique_ptr<sim::MultiRadioPolicy> {
      return std::make_unique<ProbeMultiPolicy>(actions[u], feedback);
    };
    std::vector<Event> log;
    sim::MultiRadioEngineConfig config;
    config.max_slots = 2;
    config.stop_when_complete = false;
    config.indexed_reception = indexed;
    config.on_reception = [&log](std::uint64_t slot, net::NodeId from,
                                 net::NodeId to, net::ChannelId c) {
      log.emplace_back(slot, from, to, c);
    };
    const auto result = sim::run_multi_radio_engine(network, factory, config);
    EXPECT_EQ(log, expected);
    ASSERT_EQ(feedback->outcomes.size(), 2 * outcomes.size());
    for (std::size_t i = 0; i < feedback->outcomes.size(); ++i) {
      EXPECT_EQ(feedback->outcomes[i], outcomes[i % outcomes.size()]) << i;
    }
    EXPECT_EQ(result.state.reception_count(), 6u);
    EXPECT_TRUE(result.state.is_covered({0, 2}));
    EXPECT_FALSE(result.state.is_covered({1, 2}));
    EXPECT_FALSE(result.state.is_covered({3, 2}));
    for (const net::Link link : {net::Link{4, 5}, net::Link{4, 6}}) {
      ASSERT_TRUE(result.state.is_covered(link));
      EXPECT_DOUBLE_EQ(result.state.first_coverage_time(link), 0.0);
    }
  }
}

TEST(MultiRadioTrials, RunnerIsDeterministicAcrossThreadCounts) {
  const net::Network network(
      net::make_clique(6),
      std::vector<net::ChannelSet>(6, net::ChannelSet::full(6)));
  runner::MultiRadioTrialConfig config;
  config.trials = 8;
  config.seed = 7;
  config.engine.max_slots = 200000;
  config.threads = 1;
  const auto serial = runner::run_multi_radio_trials(
      network, core::make_multi_radio_alg3(2, 6), config);
  config.threads = 4;
  const auto parallel = runner::run_multi_radio_trials(
      network, core::make_multi_radio_alg3(2, 6), config);
  EXPECT_EQ(serial.completed, parallel.completed);
  ASSERT_EQ(serial.completion_slots.values().size(),
            parallel.completion_slots.values().size());
  for (std::size_t i = 0; i < serial.completion_slots.values().size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.completion_slots.values()[i],
                     parallel.completion_slots.values()[i]);
  }
}

}  // namespace
}  // namespace m2hew
