// Network: the full M²HeW model of §II — a communication graph together
// with per-node available channel sets, plus all derived parameters the
// paper's analysis uses:
//
//   N          node count
//   S          max |A(u)|
//   span(v,u)  channels on which the arc v→u can actually carry a message:
//              A(v) ∩ A(u), further intersected with the propagation
//              filter for (v,u) when one is supplied (§V extension (c) —
//              diverse propagation characteristics)
//   Δ(u,c)     number of in-neighbors of u whose arc to u carries c
//   Δ          max over u, c of Δ(u,c)
//   span-ratio |span(v,u)| / |A(u)| for the directed link (v, u)
//   ρ          min span-ratio over all discovery links
//
// A *discovery link* (v, u) exists iff the arc v→u exists and span(v, u)
// is non-empty; the discovery ground truth is exactly the set of discovery
// links (u must learn ⟨v, span⟩ for each). On a symmetric graph with no
// propagation filter this reduces to the paper's base model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/channel_set.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"

namespace m2hew::net {

/// Optional per-arc channel usability mask (§V extension (c)): returns the
/// set of channels (over the network universe) on which a transmission
/// from `from` physically propagates to `to`. Must be deterministic.
using PropagationFilter =
    std::function<ChannelSet(NodeId from, NodeId to)>;

class Network {
 public:
  /// Base model: every arc propagates on every channel.
  Network(Topology topology, std::vector<ChannelSet> assignment);

  /// Diverse-propagation model: spans are additionally intersected with
  /// `propagation(from, to)` per arc.
  Network(Topology topology, std::vector<ChannelSet> assignment,
          const PropagationFilter& propagation);

  [[nodiscard]] NodeId node_count() const noexcept {
    return topology_.node_count();
  }
  [[nodiscard]] ChannelId universe_size() const noexcept { return universe_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const ChannelSet& available(NodeId u) const;

  /// Directed discovery links (ground truth for neighbor discovery).
  [[nodiscard]] std::span<const Link> links() const noexcept { return links_; }

  /// span(from, to); requires the arc from→to to exist.
  [[nodiscard]] const ChannelSet& span(NodeId from, NodeId to) const;

  /// An incoming arc of a node with its (possibly empty) span — the unit
  /// the simulation engines iterate to resolve receptions and interference.
  struct InLink {
    NodeId from = kInvalidNode;
    const ChannelSet* span = nullptr;
  };
  /// Incoming arcs of u, sorted by source id (a view into one flat
  /// CSR-style array shared by all nodes).
  [[nodiscard]] std::span<const InLink> in_links(NodeId u) const;

  /// Arc ids. Every arc has one id: its position in the in-link CSR
  /// (receivers ascending, sources ascending within a receiver), so the
  /// arcs of u are ids [a, a + in_links(u).size()) in in_links(u) order.
  /// Per-link simulator state is a per-arc array of arc_count() entries
  /// indexed by it.
  static constexpr std::size_t kNoArc = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t arc_count() const noexcept {
    return in_links_flat_.size();
  }

  /// Arc id of from→to, or kNoArc if there is no such arc. O(1) through a
  /// dense arc matrix when node_count() <= kDenseArcLimit, O(log
  /// indeg(to)) otherwise.
  [[nodiscard]] std::size_t in_arc(NodeId from, NodeId to) const;

  /// Arc id of u's first in-link: in_links(u)[k] is arc first_in_arc(u) + k.
  [[nodiscard]] std::size_t first_in_arc(NodeId u) const {
    return in_link_offsets_[u];
  }

  /// The span of arc id `arc` (< arc_count()).
  [[nodiscard]] const ChannelSet& arc_span(std::size_t arc) const {
    return spans_[arc];
  }

  /// Sender of arc id `arc` (< arc_count()).
  [[nodiscard]] NodeId arc_source(std::size_t arc) const {
    return in_links_flat_[arc].from;
  }

  /// An outgoing arc: its receiver and its arc id.
  struct OutArc {
    NodeId to = kInvalidNode;
    std::uint32_t arc = 0;
  };
  /// Out-arc CSR, the transmitter-side view of the same arcs: the
  /// out-arcs of v, in receiver order, are positions [first_out_arc(v),
  /// first_out_arc(v) + out_arcs(v).size()) of one flat array.
  [[nodiscard]] std::span<const OutArc> out_arcs(NodeId v) const {
    return {out_arcs_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }
  [[nodiscard]] std::size_t first_out_arc(NodeId v) const {
    return out_offsets_[v];
  }
  /// Whether the out-arc at CSR position `pos` carries channel c: one word
  /// probe into a copy of the spans stored in out-arc order.
  [[nodiscard]] bool out_arc_carries(std::size_t pos, ChannelId c) const {
    return ((out_span_words_[pos * span_stride_ + (c >> 6)] >> (c & 63)) &
            1U) != 0;
  }

  /// Arc id of each discovery link, parallel to links().
  [[nodiscard]] std::span<const std::size_t> link_arcs() const noexcept {
    return link_arcs_;
  }

  /// Largest node count for which the dense O(1) arc matrix is built
  /// (4 MiB of int32 at the limit). It is the only n² structure in the
  /// simulator; larger networks answer in_arc by binary search.
  static constexpr std::size_t kDenseArcLimit = 1024;

  /// |span(from, to)| / |A(to)| for a discovery link.
  [[nodiscard]] double span_ratio(Link link) const;

  /// Δ(u, c): in-neighbors of u on channel c; zero if c ∉ A(u).
  [[nodiscard]] std::size_t degree_on_channel(NodeId u, ChannelId c) const;

  // Derived scalar parameters (computed once at construction).
  [[nodiscard]] std::size_t max_channel_set_size() const noexcept {
    return s_;
  }  ///< S
  [[nodiscard]] std::size_t max_channel_degree() const noexcept {
    return delta_;
  }  ///< Δ
  [[nodiscard]] double min_span_ratio() const noexcept { return rho_; }  ///< ρ

  /// True iff every arc supports at least one usable channel (i.e. the
  /// communication graph equals the discovery graph).
  [[nodiscard]] bool all_edges_usable() const noexcept {
    return links_.size() == topology_.arc_count();
  }

 private:
  void build(const PropagationFilter* propagation);

  Topology topology_;
  std::vector<ChannelSet> assignment_;
  ChannelId universe_ = 0;

  // Per-arc spans, indexed by arc id.
  std::vector<ChannelSet> spans_;
  // In-link CSR: the arcs of node u are ids
  // [in_link_offsets_[u], in_link_offsets_[u+1]), sorted by source id,
  // with span pointers into spans_; used by the engines' reception loops.
  std::vector<InLink> in_links_flat_;
  std::vector<std::size_t> in_link_offsets_;
  // Out-arc CSR: v's out-arcs are [out_offsets_[v], out_offsets_[v+1]),
  // with span_stride_ span words per position in out_span_words_.
  std::vector<std::size_t> out_offsets_;
  std::vector<OutArc> out_arcs_;
  std::size_t span_stride_ = 0;
  std::vector<std::uint64_t> out_span_words_;
  // Dense (to, from) -> arc id matrix (-1 = no arc), built only for node
  // counts up to kDenseArcLimit; makes in_arc() O(1).
  std::vector<std::int32_t> arc_matrix_;
  std::vector<Link> links_;
  std::vector<std::size_t> link_arcs_;  // parallel to links_
  std::vector<std::uint32_t> degree_on_channel_;  // [u * universe_ + c]

  std::size_t s_ = 0;
  std::size_t delta_ = 0;
  double rho_ = 1.0;
};

}  // namespace m2hew::net
