#include "net/network.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace m2hew::net {

Network::Network(Topology topology, std::vector<ChannelSet> assignment)
    : topology_(std::move(topology)), assignment_(std::move(assignment)) {
  build(nullptr);
}

Network::Network(Topology topology, std::vector<ChannelSet> assignment,
                 const PropagationFilter& propagation)
    : topology_(std::move(topology)), assignment_(std::move(assignment)) {
  M2HEW_CHECK_MSG(propagation != nullptr, "null propagation filter");
  build(&propagation);
}

void Network::build(const PropagationFilter* propagation) {
  topology_.finalize();
  const NodeId n = topology_.node_count();
  M2HEW_CHECK_MSG(assignment_.size() == n,
                  "assignment size must equal node count");
  M2HEW_CHECK(n > 0);

  universe_ = assignment_[0].universe_size();
  for (const auto& a : assignment_) {
    M2HEW_CHECK_MSG(a.universe_size() == universe_,
                    "all channel sets must share one universe");
    M2HEW_CHECK_MSG(!a.empty(), "node with empty available channel set");
    s_ = std::max(s_, a.size());
  }

  // In-link CSR over the finalized (id-sorted) in-neighbor lists: the
  // position of an arc in it is its arc id.
  const auto arcs = topology_.arcs();
  spans_.resize(arcs.size());
  in_link_offsets_.assign(n + 1, 0);
  in_links_flat_.resize(arcs.size());
  for (NodeId u = 0; u < n; ++u) {
    const auto sources = topology_.in_neighbors(u);
    for (std::size_t k = 0; k < sources.size(); ++k) {
      const std::size_t arc = in_link_offsets_[u] + k;
      in_links_flat_[arc] = {sources[k], &spans_[arc]};
    }
    in_link_offsets_[u + 1] = in_link_offsets_[u] + sources.size();
  }

  // Dense arc matrix for O(1) in_arc() on the sizes the engines sweep.
  if (n <= kDenseArcLimit) {
    arc_matrix_.assign(static_cast<std::size_t>(n) * n, -1);
    for (NodeId u = 0; u < n; ++u) {
      for (std::size_t a = in_link_offsets_[u]; a < in_link_offsets_[u + 1];
           ++a) {
        arc_matrix_[static_cast<std::size_t>(u) * n + in_links_flat_[a].from] =
            static_cast<std::int32_t>(a);
      }
    }
  }

  // Per-arc spans; discovery links (in topology insertion order) with
  // their per-channel in-degrees and span ratios.
  degree_on_channel_.assign(static_cast<std::size_t>(n) * universe_, 0);
  links_.reserve(arcs.size());
  link_arcs_.reserve(arcs.size());
  rho_ = 1.0;
  for (const auto& [from, to] : arcs) {
    const std::size_t arc = in_arc(from, to);
    ChannelSet& span = spans_[arc];
    span = assignment_[from];
    span.intersect_with(assignment_[to]);
    if (propagation != nullptr) {
      const ChannelSet mask = (*propagation)(from, to);
      M2HEW_CHECK_MSG(mask.universe_size() == universe_,
                      "propagation mask universe mismatch");
      span.intersect_with(mask);
    }
    if (span.empty()) continue;
    links_.push_back({from, to});
    link_arcs_.push_back(arc);
    for (const ChannelId c : span.to_vector()) {
      ++degree_on_channel_[static_cast<std::size_t>(to) * universe_ + c];
    }
    rho_ = std::min(rho_, static_cast<double>(span.size()) /
                              static_cast<double>(assignment_[to].size()));
  }
  for (const std::uint32_t d : degree_on_channel_) {
    delta_ = std::max<std::size_t>(delta_, d);
  }

  // Out-arc CSR by counting sort over the in-link CSR: walking receivers
  // in ascending order leaves each sender's out-arcs in receiver order.
  M2HEW_CHECK_MSG(arcs.size() < UINT32_MAX, "arc ids are 32-bit");
  out_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const InLink& in : in_links_flat_) ++out_offsets_[in.from + 1];
  for (NodeId v = 0; v < n; ++v) out_offsets_[v + 1] += out_offsets_[v];
  span_stride_ = ChannelSet::word_count(universe_);
  out_arcs_.resize(arcs.size());
  out_span_words_.assign(arcs.size() * span_stride_, 0);
  std::vector<std::size_t> cursor(out_offsets_.begin(), out_offsets_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t a = in_link_offsets_[u]; a < in_link_offsets_[u + 1];
         ++a) {
      const std::size_t at = cursor[in_links_flat_[a].from]++;
      out_arcs_[at] = {u, static_cast<std::uint32_t>(a)};
      std::ranges::copy(spans_[a].words(),
                        out_span_words_.begin() +
                            static_cast<std::ptrdiff_t>(at * span_stride_));
    }
  }
}

const ChannelSet& Network::available(NodeId u) const {
  M2HEW_CHECK(u < node_count());
  return assignment_[u];
}

const ChannelSet& Network::span(NodeId from, NodeId to) const {
  M2HEW_CHECK(from < node_count() && to < node_count());
  const std::size_t arc = in_arc(from, to);
  M2HEW_CHECK_MSG(arc != kNoArc, "span() on a non-arc");
  return spans_[arc];
}

std::span<const Network::InLink> Network::in_links(NodeId u) const {
  M2HEW_CHECK(u < node_count());
  return {in_links_flat_.data() + in_link_offsets_[u],
          in_link_offsets_[u + 1] - in_link_offsets_[u]};
}

std::size_t Network::in_arc(NodeId from, NodeId to) const {
  M2HEW_DCHECK(from < node_count() && to < node_count());
  if (!arc_matrix_.empty()) {
    const std::int32_t arc =
        arc_matrix_[static_cast<std::size_t>(to) * node_count() + from];
    return arc < 0 ? kNoArc : static_cast<std::size_t>(arc);
  }
  const auto begin = in_links_flat_.begin() +
                     static_cast<std::ptrdiff_t>(in_link_offsets_[to]);
  const auto end = in_links_flat_.begin() +
                   static_cast<std::ptrdiff_t>(in_link_offsets_[to + 1]);
  const auto it = std::lower_bound(
      begin, end, from,
      [](const InLink& entry, NodeId key) { return entry.from < key; });
  return it != end && it->from == from
             ? static_cast<std::size_t>(it - in_links_flat_.begin())
             : kNoArc;
}

double Network::span_ratio(Link link) const {
  const ChannelSet& s = span(link.from, link.to);
  return static_cast<double>(s.size()) /
         static_cast<double>(assignment_[link.to].size());
}

std::size_t Network::degree_on_channel(NodeId u, ChannelId c) const {
  M2HEW_CHECK(u < node_count());
  M2HEW_CHECK(c < universe_);
  return degree_on_channel_[static_cast<std::size_t>(u) * universe_ + c];
}

}  // namespace m2hew::net
