#include "sim/discovery_state.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace m2hew::sim {

namespace {
constexpr std::uint8_t kNotALink = 2;
constexpr std::uint8_t kUncovered = 0;
constexpr std::uint8_t kCovered = 1;
}  // namespace

DiscoveryState::DiscoveryState(const net::Network& network)
    : network_(&network),
      n_(network.node_count()),
      total_links_(network.links().size()),
      covered_(network.arc_count(), kNotALink),
      first_time_(network.arc_count(), -1.0),
      tables_(n_) {
  for (const std::size_t arc : network.link_arcs()) covered_[arc] = kUncovered;
}

bool DiscoveryState::record_reception(net::NodeId sender, net::NodeId receiver,
                                      double time) {
  M2HEW_CHECK(sender < n_ && receiver < n_);
  const std::size_t arc = network_->in_arc(sender, receiver);
  M2HEW_CHECK_MSG(arc != net::Network::kNoArc,
                  "reception on a pair that is not a discovery link");
  return record_reception(sender, receiver, arc, time);
}

bool DiscoveryState::record_reception(net::NodeId sender, net::NodeId receiver,
                                      std::size_t arc, double time) {
  M2HEW_DCHECK(arc == network_->in_arc(sender, receiver));
  M2HEW_CHECK_MSG(arc < covered_.size() && covered_[arc] != kNotALink,
                  "reception on a pair that is not a discovery link");
  ++receptions_;
  if (covered_[arc] == kCovered) return false;
  covered_[arc] = kCovered;
  first_time_[arc] = time;
  ++covered_count_;
  // Receiver stores ⟨sender, A(sender) ∩ A(receiver)⟩ = span.
  tables_[receiver].push_back({sender, network_->arc_span(arc)});
  return true;
}

bool DiscoveryState::is_covered(net::Link link) const {
  M2HEW_CHECK(link.from < n_ && link.to < n_);
  const std::size_t arc = network_->in_arc(link.from, link.to);
  return arc != net::Network::kNoArc && covered_[arc] == kCovered;
}

double DiscoveryState::first_coverage_time(net::Link link) const {
  M2HEW_CHECK_MSG(is_covered(link), "link not covered yet");
  return first_time_[network_->in_arc(link.from, link.to)];
}

const std::vector<NeighborRecord>& DiscoveryState::neighbor_table(
    net::NodeId u) const {
  M2HEW_CHECK(u < n_);
  return tables_[u];
}

bool DiscoveryState::table_matches_ground_truth(net::NodeId u) const {
  M2HEW_CHECK(u < n_);
  // Expected: one record per discovery link (v, u), with the span.
  std::vector<net::NodeId> expected;
  for (const net::Link link : network_->links()) {
    if (link.to == u) expected.push_back(link.from);
  }
  const auto& table = tables_[u];
  if (table.size() != expected.size()) return false;

  std::vector<net::NodeId> got;
  got.reserve(table.size());
  for (const auto& rec : table) {
    if (!(rec.common_channels == network_->span(rec.neighbor, u))) {
      return false;
    }
    got.push_back(rec.neighbor);
  }
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  return expected == got;
}

}  // namespace m2hew::sim
