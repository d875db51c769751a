#include "sim/discovery_state.hpp"

#include <algorithm>
#include <utility>

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
      first_time_(network.arc_count(), -1.0) {
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

bool DiscoveryState::record_reception([[maybe_unused]] net::NodeId sender,
                                      [[maybe_unused]] net::NodeId receiver,
                                      std::size_t arc, double time) {
  M2HEW_DCHECK(arc == network_->in_arc(sender, receiver));
  M2HEW_CHECK_MSG(arc < covered_.size() && covered_[arc] != kNotALink,
                  "reception on a pair that is not a discovery link");
  ++receptions_;
  if (covered_[arc] == kCovered) return false;
  covered_[arc] = kCovered;
  first_time_[arc] = time;
  ++covered_count_;
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

std::vector<NeighborRecord> DiscoveryState::neighbor_table(
    net::NodeId u) const {
  M2HEW_CHECK(u < n_);
  // In-link k of u is arc first + k, and in-links ascend by sender id, so
  // sorting (time, k) orders the records by (time, sender).
  const std::size_t first = network_->first_in_arc(u);
  const auto in = network_->in_links(u);
  std::vector<std::pair<double, std::size_t>> heard;
  for (std::size_t k = 0; k < in.size(); ++k) {
    if (covered_[first + k] == kCovered) {
      heard.emplace_back(first_time_[first + k], k);
    }
  }
  std::sort(heard.begin(), heard.end());
  // A covered arc v→u is the record ⟨v, A(v) ∩ A(u)⟩ = span.
  std::vector<NeighborRecord> table;
  table.reserve(heard.size());
  for (const auto& entry : heard) {
    table.push_back({in[entry.second].from,
                     network_->arc_span(first + entry.second)});
  }
  return table;
}

bool DiscoveryState::table_matches_ground_truth(net::NodeId u) const {
  M2HEW_CHECK(u < n_);
  const std::size_t first = network_->first_in_arc(u);
  for (std::size_t k = 0; k < network_->in_links(u).size(); ++k) {
    if (covered_[first + k] == kUncovered) return false;
  }
  return true;
}

}  // namespace m2hew::sim
