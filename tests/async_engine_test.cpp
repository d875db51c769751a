#include "sim/async_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "net/channel_assign.hpp"
#include "net/topology_gen.hpp"
#include "util/rng.hpp"

namespace m2hew::sim {
namespace {

// Scripted frame policy: fixed sequence, repeating the last action forever.
class ScriptedFramePolicy final : public AsyncPolicy {
 public:
  explicit ScriptedFramePolicy(std::vector<FrameAction> script)
      : script_(std::move(script)) {}

  FrameAction next_frame(util::Rng&) override {
    const FrameAction a = script_[std::min(index_, script_.size() - 1)];
    ++index_;
    return a;
  }

 private:
  std::vector<FrameAction> script_;
  std::size_t index_ = 0;
};

constexpr FrameAction kTx0{Mode::kTransmit, 0};
constexpr FrameAction kRx0{Mode::kReceive, 0};
constexpr FrameAction kTx1{Mode::kTransmit, 1};
constexpr FrameAction kQuiet{Mode::kQuiet, net::kInvalidChannel};

[[nodiscard]] AsyncPolicyFactory scripted(
    std::vector<std::vector<FrameAction>> per_node) {
  auto shared = std::make_shared<std::vector<std::vector<FrameAction>>>(
      std::move(per_node));
  return [shared](const net::Network&, net::NodeId u) {
    return std::make_unique<ScriptedFramePolicy>((*shared)[u]);
  };
}

[[nodiscard]] net::Network two_node_net() {
  net::Topology t(2);
  t.add_edge(0, 1);
  return net::Network(std::move(t), std::vector<net::ChannelSet>(
                                        2, net::ChannelSet(2, {0, 1})));
}

[[nodiscard]] net::Network star3_net() {
  net::Topology t(3);
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  return net::Network(std::move(t), std::vector<net::ChannelSet>(
                                        3, net::ChannelSet(2, {0, 1})));
}

TEST(AsyncEngine, AlignedFramesDeliverInFirstSlot) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.frame_length = 3.0;  // slots of length 1
  config.max_real_time = 100.0;
  const auto result = run_async_engine(
      network, scripted({{kTx0}, {kRx0}}), config);
  EXPECT_TRUE(result.state.is_covered({0, 1}));
  // First slot of node 0's first frame is [0, 1]; reception at its end.
  EXPECT_DOUBLE_EQ(result.state.first_coverage_time({0, 1}), 1.0);
  EXPECT_FALSE(result.state.is_covered({1, 0}));
}

TEST(AsyncEngine, TransmitterFrameFullyInterferedByOtherSender) {
  // Hub 0 listens on c0; nodes 1 and 2 both transmit whole frames on c0
  // with identical (ideal, aligned) clocks: every slot of each is
  // overlapped by the other's burst, so the hub hears nothing.
  const net::Network network = star3_net();
  AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.max_real_time = 30.0;
  config.stop_when_complete = false;
  config.max_frames_per_node = 10;
  const auto result = run_async_engine(
      network, scripted({{kRx0}, {kTx0}, {kTx0}}), config);
  EXPECT_EQ(result.state.covered_links(), 0u);
}

TEST(AsyncEngine, DifferentChannelsDoNotInterfere) {
  const net::Network network = star3_net();
  AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.max_real_time = 30.0;
  config.stop_when_complete = false;
  config.max_frames_per_node = 4;
  // Hub listens c0 then c1; 1 transmits on c0, 2 on c1.
  const auto result = run_async_engine(
      network, scripted({{kRx0, {Mode::kReceive, 1}}, {kTx0}, {kTx1}}),
      config);
  EXPECT_TRUE(result.state.is_covered({1, 0}));
  EXPECT_TRUE(result.state.is_covered({2, 0}));
}

TEST(AsyncEngine, PartialOverlapInterferenceKillsOnlyOverlappedSlots) {
  // Hub listens [0, 3] on c0. Node 1 transmits its frame [0, 3]; node 2
  // starts at 1.5 and transmits [1.5, 4.5]. Node 2's burst overlaps node
  // 1's slots [1,2] and [2,3] but not [0,1] — so the hub still hears node
  // 1 via its first slot. Node 2's own slots inside [0,3] are all
  // overlapped by node 1's burst.
  const net::Network network = star3_net();
  AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.max_real_time = 3.1;  // only the hub's first listening frame
  config.starts = {0.0, 0.0, 1.5};
  config.stop_when_complete = false;
  const auto result = run_async_engine(
      network, scripted({{kRx0, kQuiet}, {kTx0, kQuiet}, {kTx0, kQuiet}}),
      config);
  EXPECT_TRUE(result.state.is_covered({1, 0}));
  EXPECT_FALSE(result.state.is_covered({2, 0}));
  EXPECT_DOUBLE_EQ(result.state.first_coverage_time({1, 0}), 1.0);
}

TEST(AsyncEngine, MisalignedFramesStillDeliver) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.starts = {1.3, 0.0};  // transmitter offset inside listener frame
  config.max_real_time = 100.0;
  const auto result = run_async_engine(
      network, scripted({{kTx0}, {kRx0}}), config);
  EXPECT_TRUE(result.state.is_covered({0, 1}));
}

TEST(AsyncEngine, DriftedClocksStillDeliver) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.max_real_time = 300.0;
  config.clock_builder = [](net::NodeId u, std::uint64_t) {
    // One fast clock at +1/7, one slow at −1/7 (the paper's extremes).
    const double drift = (u == 0) ? 1.0 / 7.0 : -1.0 / 7.0;
    return std::make_unique<ConstantDriftClock>(drift, 0.0);
  };
  const auto result = run_async_engine(
      network, scripted({{kTx0}, {kRx0}}), config);
  EXPECT_TRUE(result.state.is_covered({0, 1}));
}

TEST(AsyncEngine, FramesStartedMatchesBudget) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.frame_length = 1.0;
  config.max_frames_per_node = 7;
  config.max_real_time = 1e6;
  config.stop_when_complete = false;
  const auto result = run_async_engine(
      network, scripted({{kQuiet}, {kQuiet}}), config);
  EXPECT_EQ(result.frames_started[0], 7u);
  EXPECT_EQ(result.frames_started[1], 7u);
  EXPECT_FALSE(result.complete);
}

TEST(AsyncEngine, TsIsLatestStart) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.starts = {0.0, 7.5};
  config.max_real_time = 100.0;
  // Node 0 transmits its first three frames ([0,3), [3,6), [6,9)) then
  // listens; node 1 (starting at 7.5) listens one frame then transmits.
  // Both directions get covered only after node 1 is awake.
  const auto result = run_async_engine(
      network, scripted({{kTx0, kTx0, kTx0, kRx0}, {kRx0, kTx0}}), config);
  EXPECT_DOUBLE_EQ(result.t_s, 7.5);
  ASSERT_TRUE(result.complete);
  EXPECT_GE(result.completion_time, 7.5);
}

TEST(AsyncEngine, FullFramesSinceTsAreConsistent) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.max_real_time = 1000.0;
  // Node 0 listens in frame 0 (covering (1,0) at t=1 from node 1's initial
  // transmit frame), then stays quiet until transmitting in frame 4; node 1
  // listens from frame 1 onward, covering (0,1) at t=13.
  const auto result = run_async_engine(
      network,
      scripted({{kRx0, kQuiet, kQuiet, kQuiet, kTx0, kQuiet},
                {kTx0, kRx0}}),
      config);
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.full_frames_since_ts.size(), 2u);
  // Completion happens at the end of the first slot of frame 4 (t = 13):
  // node timelines are ideal and start at 0, so both nodes fit exactly 4
  // full frames in [0, 13].
  EXPECT_DOUBLE_EQ(result.completion_time, 13.0);
  EXPECT_EQ(result.full_frames_since_ts[0], 4u);
  EXPECT_EQ(result.full_frames_since_ts[1], 4u);
}

TEST(AsyncEngine, CertainLossBlocksDelivery) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.max_real_time = 60.0;
  config.loss_probability = 0.999999;
  const auto result = run_async_engine(
      network, scripted({{kTx0}, {kRx0}}), config);
  EXPECT_FALSE(result.state.is_covered({0, 1}));
}

TEST(AsyncEngine, QuietFramesProduceNothing) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.frame_length = 1.0;
  config.max_real_time = 20.0;
  config.stop_when_complete = false;
  config.max_frames_per_node = 10;
  const auto result = run_async_engine(
      network, scripted({{kQuiet}, {kRx0}}), config);
  EXPECT_EQ(result.state.covered_links(), 0u);
  EXPECT_EQ(result.state.reception_count(), 0u);
}

TEST(AsyncEngine, SlotsPerFrameAblationChangesSlotLength) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.frame_length = 4.0;
  config.slots_per_frame = 4;
  config.max_real_time = 50.0;
  const auto result = run_async_engine(
      network, scripted({{kTx0}, {kRx0}}), config);
  ASSERT_TRUE(result.state.is_covered({0, 1}));
  // First slot is [0, 1] with 4 slots over length 4.
  EXPECT_DOUBLE_EQ(result.state.first_coverage_time({0, 1}), 1.0);
}

// --- Event-order goldens ---------------------------------------------------
//
// Algorithm 4 runs whose outputs depend on how events at one instant are
// ordered: listening frames ending at t are resolved in node-id order, a
// completion found there stops the run before any frame starting at t, a
// frame budget or real-time cap ends a node or the run at a boundary. The
// fingerprints were recorded with an independent event queue (one event
// per frame start and per listening-frame end, ends first at a tie);
// both reception paths must reproduce them exactly.

[[nodiscard]] net::Network golden_net(std::uint64_t seed) {
  util::Rng rng(seed);
  net::Topology topology = net::make_erdos_renyi(8, 0.5, rng);
  return net::Network(std::move(topology),
                      net::uniform_random_assignment(8, 4, 3, rng));
}

// Every pinned output as text: per-node frames started, activity and full
// frames since T_s, then completion, receptions and the robustness report.
// Doubles are printed with 17 significant digits, so equal text means
// bit-equal values.
[[nodiscard]] std::string fingerprint(const AsyncEngineResult& r) {
  std::string out;
  auto add = [&out](const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%.17g ", key, v);
    out += buf;
  };
  for (std::size_t u = 0; u < r.frames_started.size(); ++u) {
    out += std::to_string(r.frames_started[u]) + ":" +
           std::to_string(r.activity[u].transmit) + "/" +
           std::to_string(r.activity[u].receive) + "/" +
           std::to_string(r.activity[u].quiet) + " ";
  }
  out += "full=";
  for (const std::uint64_t f : r.full_frames_since_ts) {
    out += std::to_string(f) + ",";
  }
  out += " ";
  add("complete", r.complete ? 1.0 : 0.0);
  add("t", r.completion_time);
  add("rx", static_cast<double>(r.state.reception_count()));
  add("covered", static_cast<double>(r.state.covered_links()));
  const RobustnessReport& b = r.robustness;
  add("crashed", static_cast<double>(b.crashed_nodes));
  add("down", static_cast<double>(b.down_at_end));
  add("surv", static_cast<double>(b.surviving_links));
  add("csurv", static_cast<double>(b.covered_surviving_links));
  add("ghost", static_cast<double>(b.ghost_entries));
  add("recov", static_cast<double>(b.recovered_links));
  add("redisc", static_cast<double>(b.rediscovered_links));
  add("mean_re", b.mean_rediscovery);
  add("max_re", b.max_rediscovery);
  return out;
}

// Indexed == reference on every output, per link down to the first
// coverage time.
void expect_same_result(const net::Network& network,
                        const AsyncEngineResult& a,
                        const AsyncEngineResult& b) {
  EXPECT_EQ(a.t_s, b.t_s);
  EXPECT_TRUE(fingerprint(a) == fingerprint(b));
  for (const net::Link link : network.links()) {
    ASSERT_EQ(a.state.is_covered(link), b.state.is_covered(link))
        << "link " << link.from << "->" << link.to;
    if (a.state.is_covered(link)) {
      ASSERT_EQ(a.state.first_coverage_time(link),
                b.state.first_coverage_time(link))
          << "link " << link.from << "->" << link.to;
    }
  }
}

void expect_golden(const net::Network& network, AsyncEngineConfig config,
                   const std::string& golden) {
  for (const bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "indexed" : "reference");
    config.indexed_reception = indexed;
    EXPECT_EQ(fingerprint(run_async_engine(
                  network, core::make_algorithm4(4), config)),
              golden);
  }
}

TEST(AsyncEngineGolden, IdealClocksCompleteMidInstant) {
  // Every node starts at 0 on an ideal clock, so all frame boundaries
  // coincide. Completion is found while resolving node 1's listening
  // frame at t = 131: node 3's listening frame ending there and every
  // frame starting there are skipped.
  AsyncEngineConfig config;
  config.seed = 2;
  expect_golden(golden_net(11), config,
                "131:32/99/0 131:34/97/0 131:40/91/0 131:45/86/0 131:30/101/0 "
                "131:31/100/0 131:28/103/0 131:32/99/0 "
                "full=130,130,130,130,130,130,130,130, "
                "complete=1 t=130.33333333333334 rx=177 covered=38 crashed=0 "
                "down=0 surv=0 csurv=0 ghost=0 recov=0 redisc=0 mean_re=0 "
                "max_re=0 ");
}

TEST(AsyncEngineGolden, FrameBudgetEndsEveryNode) {
  AsyncEngineConfig config;
  config.seed = 5;
  config.stop_when_complete = false;
  config.max_frames_per_node = 40;
  config.starts = {0.0, 0.5, 1.0, 0.0, 2.25, 0.0, 3.0, 1.0};
  config.clock_builder = [](net::NodeId u, std::uint64_t) {
    return std::make_unique<ConstantDriftClock>(
        (static_cast<double>(u % 3) - 1.0) / 7.0, 0.0);
  };
  expect_golden(golden_net(12), config,
                "40:15/25/0 40:11/29/0 40:12/28/0 40:9/31/0 40:10/30/0 "
                "40:8/32/0 40:15/25/0 40:7/33/0 full= complete=0 t=0 rx=42 "
                "covered=19 crashed=0 down=0 surv=0 csurv=0 ghost=0 recov=0 "
                "redisc=0 mean_re=0 max_re=0 ");
}

TEST(AsyncEngineGolden, RealTimeCapCutsTheRun) {
  AsyncEngineConfig config;
  config.seed = 7;
  config.max_real_time = 9.0;
  config.clock_builder = [](net::NodeId, std::uint64_t clock_seed) {
    PiecewiseDriftClock::Config drift;
    drift.max_drift = 0.1;
    drift.min_segment = 2.0;
    drift.max_segment = 5.0;
    return std::make_unique<PiecewiseDriftClock>(drift, clock_seed);
  };
  expect_golden(golden_net(13), config,
                "9:1/8/0 10:0/10/0 9:2/7/0 10:4/6/0 9:2/7/0 10:4/6/0 "
                "10:2/8/0 10:1/9/0 full= complete=0 t=0 rx=9 covered=7 "
                "crashed=0 down=0 surv=0 csurv=0 ghost=0 recov=0 redisc=0 "
                "mean_re=0 max_re=0 ");
}

TEST(AsyncEngineGolden, DriftWanderWithChurn) {
  AsyncEngineConfig config;
  config.seed = 9;
  config.stop_when_complete = false;
  config.max_real_time = 120.0;
  config.faults.churn = {0.5, 5.0, 40.0, 5.0, 30.0, true};
  config.faults.drift_wander = {true, 0.12, 5.0, 20.0};
  expect_golden(golden_net(14), config,
                "120:36/84/0 110:30/80/0 115:33/82/0 110:26/84/0 111:29/82/0 "
                "95:25/70/0 121:32/89/0 107:28/79/0 "
                "full=59,62,55,56,57,61,57,56, "
                "complete=1 t=58.37504046682281 rx=95 covered=16 crashed=5 "
                "down=0 surv=16 csurv=16 ghost=0 recov=16 redisc=15 "
                "mean_re=14.188724157482675 max_re=36.366857041247982 ");
}

// A clock that runs at rate 1 until `knee`, then at `rate` < 1: real
// frame lengths grow late in the run, and so does the engine's retention
// horizon.
class SlowdownClock final : public Clock {
 public:
  SlowdownClock(double knee, double rate) : knee_(knee), rate_(rate) {}
  [[nodiscard]] double local_at_real(double t) override {
    return t <= knee_ ? t : knee_ + (t - knee_) * rate_;
  }
  [[nodiscard]] double real_at_local(double local) override {
    return local <= knee_ ? local : knee_ + (local - knee_) / rate_;
  }

 private:
  double knee_;
  double rate_;
};

TEST(AsyncEngine, GrowingFramesKeepIndexedEqualToReference) {
  // Frames get up to 4x longer late in the run, so the retention horizon
  // grows while transmit frames wait in receivers' inboxes and senders
  // prune their histories; the indexed path must still match the
  // reference.
  const net::Network network = golden_net(15);
  AsyncEngineConfig config;
  config.seed = 21;
  config.stop_when_complete = false;
  config.max_real_time = 400.0;
  config.clock_builder = [](net::NodeId u, std::uint64_t) {
    return std::make_unique<SlowdownClock>(
        20.0 + 7.0 * static_cast<double>(u),
        1.0 / static_cast<double>(1 + u % 4));
  };
  AsyncEngineConfig reference = config;
  reference.indexed_reception = false;
  const AsyncEngineResult a =
      run_async_engine(network, core::make_algorithm4(4), config);
  EXPECT_GT(a.state.reception_count(), 0u);
  expect_same_result(
      network, a,
      run_async_engine(network, core::make_algorithm4(4), reference));
}

// --- Indexed == reference at scale ------------------------------------------
//
// Algorithm 4 on a bucketed unit-disk network with mean degree ~6 under
// drifting clocks, staggered starts, churn and burst loss. M2HEW_SCALE_N
// sets the node count; the default keeps the suite fast, and CI runs
// N = 30,000 under a time cap that a resolver doing O(N) work per
// listening frame cannot meet.
[[nodiscard]] net::NodeId scale_n() {
  const char* env = std::getenv("M2HEW_SCALE_N");
  return env == nullptr
             ? 2000
             : static_cast<net::NodeId>(std::strtoull(env, nullptr, 10));
}

[[nodiscard]] net::Network scale_network(net::NodeId n) {
  util::Rng rng(0x5CA1E);
  // Side sqrt(N) and radius 1.382: pi * r^2 ~ 6 neighbors per node.
  net::Topology topology =
      net::make_unit_disk_bucketed(
          n, std::sqrt(static_cast<double>(n)), 1.382, rng)
          .topology;
  return net::Network(std::move(topology),
                      net::uniform_random_assignment(n, 6, 3, rng));
}

TEST(AsyncEngineAtScale, IndexedMatchesReference) {
  const net::NodeId n = scale_n();
  const net::Network network = scale_network(n);
  AsyncEngineConfig config;
  config.seed = 31;
  config.max_real_time = 150.0;
  config.starts.resize(n);
  for (net::NodeId u = 0; u < n; ++u) {
    config.starts[u] = static_cast<double>(u % 40) / 4.0;
  }
  config.clock_builder = [](net::NodeId, std::uint64_t clock_seed) {
    PiecewiseDriftClock::Config drift;
    drift.max_drift = 0.1;
    drift.min_segment = 10.0;
    drift.max_segment = 40.0;
    return std::make_unique<PiecewiseDriftClock>(drift, clock_seed);
  };
  config.faults.churn = {0.3, 10.0, 60.0, 5.0, 40.0, true};
  config.faults.burst_loss = {true, 0.05, 0.2, 0.02, 0.8};
  const AsyncPolicyFactory factory = core::make_algorithm4(8);

  AsyncEngineConfig reference = config;
  reference.indexed_reception = false;
  const AsyncEngineResult a = run_async_engine(network, factory, config);
  EXPECT_GT(a.state.covered_links(), 0u);
  EXPECT_GT(a.robustness.crashed_nodes, 0u);
  expect_same_result(network, a,
                     run_async_engine(network, factory, reference));
}

TEST(AsyncEngineDeath, BadSlotCountAborts) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.slots_per_frame = 0;
  EXPECT_DEATH(
      (void)run_async_engine(network, scripted({{kRx0}, {kRx0}}), config),
      "CHECK failed");
}

TEST(AsyncEngineDeath, WrongStartTimesSizeAborts) {
  const net::Network network = two_node_net();
  AsyncEngineConfig config;
  config.starts = {0.0};
  EXPECT_DEATH(
      (void)run_async_engine(network, scripted({{kRx0}, {kRx0}}), config),
      "CHECK failed");
}

}  // namespace
}  // namespace m2hew::sim
