// DiscoveryState: tracks which discovery links have been covered and
// their first-coverage times, one entry per arc. Each node's neighbor
// table is derived from that ledger on demand: the covered in-arcs with
// their spans, ordered by (first coverage time, sender id). On the
// single-radio slot engine that is first-reception order. Two first
// receptions at one node can share a slot only on the multi-radio
// engine, where the sender id breaks the tie, not the radio index. The
// async engine decodes a listening frame's senders in id order at the
// frame's end, but each at its own slot's end, and the table lists them
// by that time. No policy reads DiscoveryState, and every table
// comparison is between runs of the same engine.
//
// This is measurement machinery (a global oracle), not part of the
// distributed algorithms: nodes never consult it; the engines use it to
// detect completion and the benches use it to report discovery latency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/channel_set.hpp"
#include "net/network.hpp"
#include "net/types.hpp"

namespace m2hew::sim {

/// One received discovery record at a node: ⟨v, A(v) ∩ A(u)⟩ per
/// Algorithm 1 line 11 / Algorithm 4 line 11.
struct NeighborRecord {
  net::NodeId neighbor = net::kInvalidNode;
  net::ChannelSet common_channels;
};

class DiscoveryState {
 public:
  explicit DiscoveryState(const net::Network& network);

  /// Records that `receiver` heard a clear discovery message from `sender`
  /// (a topology neighbor with non-empty span) at `time` (slot index or real
  /// time, caller's unit). Idempotent; repeat receptions are counted but do
  /// not change first-coverage time. Returns true iff this was the first
  /// coverage of the link.
  bool record_reception(net::NodeId sender, net::NodeId receiver, double time);
  /// The same, with the arc id network.in_arc(sender, receiver) already
  /// resolved (the engines' hot path).
  bool record_reception(net::NodeId sender, net::NodeId receiver,
                        std::size_t arc, double time);

  [[nodiscard]] bool complete() const noexcept {
    return covered_count_ == total_links_;
  }
  [[nodiscard]] std::size_t total_links() const noexcept {
    return total_links_;
  }
  [[nodiscard]] std::size_t covered_links() const noexcept {
    return covered_count_;
  }
  [[nodiscard]] std::size_t reception_count() const noexcept {
    return receptions_;
  }

  /// False when the pair is not a covered discovery link, including when
  /// from→to is not an arc at all.
  [[nodiscard]] bool is_covered(net::Link link) const;

  /// First-coverage time of a link; requires is_covered(link).
  [[nodiscard]] double first_coverage_time(net::Link link) const;

  /// Neighbor table of node u as built from received messages, ordered
  /// by (first coverage time, sender id).
  [[nodiscard]] std::vector<NeighborRecord> neighbor_table(
      net::NodeId u) const;

  /// True iff node u's table contains exactly its ground-truth neighbors
  /// with exactly the span channel sets, i.e. every discovery link into u
  /// is covered.
  [[nodiscard]] bool table_matches_ground_truth(net::NodeId u) const;

  /// Per-arc coverage indexed by net::Network arc id: 1 iff the arc is a
  /// covered discovery link (0 = uncovered, 2 = not a discovery link).
  [[nodiscard]] std::span<const std::uint8_t> arc_coverage() const noexcept {
    return covered_;
  }

 private:
  const net::Network* network_;
  net::NodeId n_;
  std::size_t total_links_ = 0;
  std::size_t covered_count_ = 0;
  std::size_t receptions_ = 0;
  // Per-arc state, indexed by arc id: O(arcs), like the network itself.
  std::vector<std::uint8_t> covered_;      // 0/1/2: 2 = not a link
  std::vector<double> first_time_;
};

}  // namespace m2hew::sim
