// Contact bookkeeping for time-varying topologies (sim/encounter.hpp).
//
// EncounterIndex derives the contact schedule — maximal runs of
// consecutive epochs in which a directed arc is live — from an epoch
// schedule, and EncounterTracker latches the first reception inside each
// contact. The scripted schedule below pins the exact
// schedule semantics: run merging across epochs, clamping to the trial
// budget, the trailing run extending to max_slots (simulations past the
// schedule stay on the last epoch), and contacts starting at or beyond
// the budget being dropped.
#include "sim/encounter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "net/channel_assign.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/topology_provider.hpp"

namespace m2hew {
namespace {

[[nodiscard]] net::Topology make_topology(
    const std::vector<std::pair<net::NodeId, net::NodeId>>& edges) {
  net::Topology topology(3);
  for (const auto& [a, b] : edges) topology.add_edge(a, b);
  topology.finalize();
  return topology;
}

// A hand-written epoch schedule (all nodes on channel 0, so every arc is
// a discovery link whenever it exists):
//   epoch 0: 0-1          epoch 1: 0-1, 1-2       epoch 2: 1-2
// Union: 0-1, 1-2. With epoch_slots = 10 and max_slots = 30 the contact
// schedule is [0, 20) for both directions of 0-1 and [10, 30) for both
// directions of 1-2 (the 1-2 run is still open when the schedule ends).
[[nodiscard]] net::EpochTopologyProvider scripted_schedule() {
  std::vector<net::Topology> epochs;
  epochs.push_back(make_topology({{0, 1}}));
  epochs.push_back(make_topology({{0, 1}, {1, 2}}));
  epochs.push_back(make_topology({{1, 2}}));
  return {std::move(epochs), net::homogeneous_assignment(3, 1, 1)};
}

TEST(EncounterIndex, DerivesContactRunsFromEpochSchedule) {
  const net::EpochTopologyProvider provider = scripted_schedule();
  const sim::EncounterIndex index(provider, /*epoch_slots=*/10,
                                  /*max_slots=*/30);

  // Two directions of 0-1 plus two directions of 1-2.
  EXPECT_EQ(index.contact_count(), 4u);

  // 0-1 is active through epochs 0 and 1: one merged contact [0, 20).
  const std::size_t c01 = index.contact_at(0, 1, 0);
  ASSERT_NE(c01, sim::EncounterIndex::npos);
  EXPECT_EQ(index.contacts()[c01].start_slot, 0u);
  EXPECT_EQ(index.contacts()[c01].end_slot, 20u);
  EXPECT_EQ(index.contact_at(0, 1, 19), c01);
  EXPECT_EQ(index.contact_at(0, 1, 20), sim::EncounterIndex::npos);

  // 1-2 opens at epoch 1 and is still active when the schedule ends, so
  // its contact extends to the trial budget: [10, 30).
  EXPECT_EQ(index.contact_at(1, 2, 9), sim::EncounterIndex::npos);
  const std::size_t c12 = index.contact_at(1, 2, 10);
  ASSERT_NE(c12, sim::EncounterIndex::npos);
  EXPECT_EQ(index.contacts()[c12].start_slot, 10u);
  EXPECT_EQ(index.contacts()[c12].end_slot, 30u);
  EXPECT_EQ(index.contact_at(2, 1, 29), index.contact_at(2, 1, 10));

  // Arcs that never exist (or node pairs with no arc) have no contacts.
  EXPECT_EQ(index.contact_at(0, 2, 5), sim::EncounterIndex::npos);
  EXPECT_EQ(index.contact_at(2, 0, 5), sim::EncounterIndex::npos);
}

TEST(EncounterIndex, ClampsContactsToTheTrialBudget) {
  const net::EpochTopologyProvider provider = scripted_schedule();
  // Budget ends mid-contact: [10, 30) clamps to [10, 25).
  const sim::EncounterIndex index(provider, 10, 25);
  const std::size_t c = index.contact_at(1, 2, 12);
  ASSERT_NE(c, sim::EncounterIndex::npos);
  EXPECT_EQ(index.contacts()[c].start_slot, 10u);
  EXPECT_EQ(index.contacts()[c].end_slot, 25u);
  EXPECT_EQ(index.contact_at(1, 2, 25), sim::EncounterIndex::npos);
}

TEST(EncounterIndex, DropsContactsStartingBeyondTheBudget) {
  const net::EpochTopologyProvider provider = scripted_schedule();
  // max_slots = 10 ends the trial exactly when 1-2 would open: only the
  // two 0-1 contacts remain (clamped to [0, 10)).
  const sim::EncounterIndex index(provider, 10, 10);
  EXPECT_EQ(index.contact_count(), 2u);
  EXPECT_EQ(index.contact_at(1, 2, 5), sim::EncounterIndex::npos);
  const std::size_t c = index.contact_at(0, 1, 5);
  ASSERT_NE(c, sim::EncounterIndex::npos);
  EXPECT_EQ(index.contacts()[c].end_slot, 10u);
}

TEST(EncounterIndex, TrailingRunExtendsPastTheSchedule) {
  const net::EpochTopologyProvider provider = scripted_schedule();
  // A run longer than the schedule stays on the last epoch, so the open
  // 1-2 contact stretches to the full budget.
  const sim::EncounterIndex index(provider, 10, 50);
  const std::size_t c = index.contact_at(2, 1, 49);
  ASSERT_NE(c, sim::EncounterIndex::npos);
  EXPECT_EQ(index.contacts()[c].start_slot, 10u);
  EXPECT_EQ(index.contacts()[c].end_slot, 50u);
  // ... while the closed 0-1 contact keeps its schedule-derived end.
  EXPECT_EQ(index.contact_at(0, 1, 20), sim::EncounterIndex::npos);
}

TEST(EncounterIndex, SingleEpochProviderYieldsOneContactPerArc) {
  std::vector<net::Topology> epochs;
  epochs.push_back(make_topology({{0, 1}, {1, 2}}));
  const net::EpochTopologyProvider provider(
      std::move(epochs), net::homogeneous_assignment(3, 1, 1));
  const sim::EncounterIndex index(provider, 10, 123);
  EXPECT_EQ(index.contact_count(), provider.union_network().links().size());
  for (const sim::Contact& contact : index.contacts()) {
    EXPECT_EQ(contact.start_slot, 0u);
    EXPECT_EQ(contact.end_slot, 123u);
  }
}

TEST(EncounterTracker, LatchesFirstDetectionPerContact) {
  const net::EpochTopologyProvider provider = scripted_schedule();
  const sim::EncounterIndex index(provider, 10, 30);
  sim::EncounterTracker tracker(index);

  // Receptions outside any contact are ignored (1-2 opens at slot 10).
  tracker.on_reception(5, 1, 2);
  // First detection of 0->1 at slot 12; the slot-15 repeat must not move
  // the latency. 2->1 detected at 28 of [10, 30).
  tracker.on_reception(12, 0, 1);
  tracker.on_reception(15, 0, 1);
  tracker.on_reception(28, 2, 1);

  const sim::EncounterReport report = tracker.report();
  EXPECT_EQ(report.contacts, 4u);
  EXPECT_EQ(report.detected, 2u);
  ASSERT_EQ(report.detection_latency.size(), 2u);
  ASSERT_EQ(report.latency_over_duration.size(), 2u);
  // Report order is contact order (receiver-major): 0->1 then 2->1.
  EXPECT_DOUBLE_EQ(report.detection_latency[0], 12.0);
  EXPECT_DOUBLE_EQ(report.latency_over_duration[0], 12.0 / 20.0);
  EXPECT_DOUBLE_EQ(report.detection_latency[1], 18.0);
  EXPECT_DOUBLE_EQ(report.latency_over_duration[1], 18.0 / 20.0);
}

TEST(EncounterTracker, FreshTrackerReportsAllContactsMissed) {
  const net::EpochTopologyProvider provider = scripted_schedule();
  const sim::EncounterIndex index(provider, 10, 30);
  const sim::EncounterTracker tracker(index);
  const sim::EncounterReport report = tracker.report();
  EXPECT_EQ(report.contacts, 4u);
  EXPECT_EQ(report.detected, 0u);
  EXPECT_TRUE(report.detection_latency.empty());
}

}  // namespace
}  // namespace m2hew
