#include "sim/discovery_state.hpp"

#include <gtest/gtest.h>

#include "net/topology_gen.hpp"

namespace m2hew::sim {
namespace {

[[nodiscard]] net::Network make_path_network() {
  // 0 -- 1 -- 2, all on channels {0,1}.
  return net::Network(net::make_line(3),
                      std::vector<net::ChannelSet>(
                          3, net::ChannelSet(2, {0, 1})));
}

TEST(DiscoveryState, StartsEmpty) {
  const net::Network network = make_path_network();
  const DiscoveryState state(network);
  EXPECT_EQ(state.total_links(), 4u);  // 2 edges × 2 directions
  EXPECT_EQ(state.covered_links(), 0u);
  EXPECT_FALSE(state.complete());
  EXPECT_FALSE(state.is_covered({0, 1}));
}

TEST(DiscoveryState, RecordCoversDirectionally) {
  const net::Network network = make_path_network();
  DiscoveryState state(network);
  EXPECT_TRUE(state.record_reception(0, 1, 5.0));
  EXPECT_TRUE(state.is_covered({0, 1}));
  EXPECT_FALSE(state.is_covered({1, 0}));  // the reverse link is separate
  EXPECT_EQ(state.covered_links(), 1u);
  EXPECT_DOUBLE_EQ(state.first_coverage_time({0, 1}), 5.0);
}

TEST(DiscoveryState, RepeatReceptionKeepsFirstTime) {
  const net::Network network = make_path_network();
  DiscoveryState state(network);
  EXPECT_TRUE(state.record_reception(0, 1, 5.0));
  EXPECT_FALSE(state.record_reception(0, 1, 9.0));
  EXPECT_DOUBLE_EQ(state.first_coverage_time({0, 1}), 5.0);
  EXPECT_EQ(state.covered_links(), 1u);
  EXPECT_EQ(state.reception_count(), 2u);
}

TEST(DiscoveryState, CompleteAfterAllLinks) {
  const net::Network network = make_path_network();
  DiscoveryState state(network);
  state.record_reception(0, 1, 1.0);
  state.record_reception(1, 0, 2.0);
  state.record_reception(1, 2, 3.0);
  EXPECT_FALSE(state.complete());
  state.record_reception(2, 1, 4.0);
  EXPECT_TRUE(state.complete());
}

TEST(DiscoveryState, NeighborTablesHoldSpans) {
  const net::Network network = make_path_network();
  DiscoveryState state(network);
  state.record_reception(0, 1, 1.0);
  const auto& table = state.neighbor_table(1);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].neighbor, 0u);
  EXPECT_EQ(table[0].common_channels, network.span(0, 1));
}

TEST(DiscoveryState, NeighborTableOrdersByTimeThenSender) {
  // Node 1 hears 2 before 0: first-coverage order.
  const net::Network network = make_path_network();
  DiscoveryState later(network);
  later.record_reception(2, 1, 3.0);
  later.record_reception(0, 1, 5.0);
  const auto by_time = later.neighbor_table(1);
  ASSERT_EQ(by_time.size(), 2u);
  EXPECT_EQ(by_time[0].neighbor, 2u);
  EXPECT_EQ(by_time[1].neighbor, 0u);

  // Two first receptions in one slot (two radios): the sender id breaks
  // the tie, whatever order they were recorded in.
  DiscoveryState same_slot(network);
  same_slot.record_reception(2, 1, 4.0);
  same_slot.record_reception(0, 1, 4.0);
  const auto tied = same_slot.neighbor_table(1);
  ASSERT_EQ(tied.size(), 2u);
  EXPECT_EQ(tied[0].neighbor, 0u);
  EXPECT_EQ(tied[1].neighbor, 2u);
  EXPECT_EQ(tied[1].common_channels, network.span(2, 1));
}

TEST(DiscoveryState, GroundTruthComparison) {
  const net::Network network = make_path_network();
  DiscoveryState state(network);
  EXPECT_FALSE(state.table_matches_ground_truth(1));
  state.record_reception(0, 1, 1.0);
  EXPECT_FALSE(state.table_matches_ground_truth(1));  // 2 still missing
  state.record_reception(2, 1, 2.0);
  EXPECT_TRUE(state.table_matches_ground_truth(1));
  // Node 0's table only needs node 1.
  state.record_reception(1, 0, 3.0);
  EXPECT_TRUE(state.table_matches_ground_truth(0));
}

TEST(DiscoveryStateDeath, NonLinkReceptionAborts) {
  const net::Network network = make_path_network();
  DiscoveryState state(network);
  EXPECT_DEATH(state.record_reception(0, 2, 1.0), "CHECK failed");
}

TEST(DiscoveryStateDeath, FirstTimeOfUncoveredAborts) {
  const net::Network network = make_path_network();
  const DiscoveryState state(network);
  EXPECT_DEATH((void)state.first_coverage_time({0, 1}), "CHECK failed");
}

TEST(DiscoveryState, EmptySpanPairIsNotALink) {
  net::Topology t(2);
  t.add_edge(0, 1);
  const net::Network network(
      std::move(t),
      {net::ChannelSet(2, {0}), net::ChannelSet(2, {1})});
  DiscoveryState state(network);
  EXPECT_EQ(state.total_links(), 0u);
  EXPECT_TRUE(state.complete());  // vacuously
}

}  // namespace
}  // namespace m2hew::sim
