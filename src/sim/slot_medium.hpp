// The shared synchronous channel medium. Both slotted engines (single-
// and multi-radio) answer the same per-slot question from §II: listener
// u, tuned to channel c, hears sender v iff v is the UNIQUE in-neighbor
// of u emitting on c whose arc to u carries c — otherwise u hears a
// collision (two or more such senders) or silence (none). This class owns
// that resolution once, in the two bit-identical strategies the engines
// switch between (`EngineCommon::indexed_reception`):
//
//   * indexed: one O(#transmitters) sweep per slot groups transmitters
//     into per-channel buckets (allocated once, cleared through the
//     touched list); a listener resolves against only its channel's
//     bucket through net::Network::in_arc(), early-exiting at the second
//     matching sender;
//   * reference: the original per-listener scan over the full in-link
//     list, kept as the executable specification for the equivalence
//     property tests.
//
// Both walk candidates in ascending sender id (buckets are filled in node
// id order; in-link lists are id-sorted), so sender/collision — and
// therefore policy-callback order and loss-RNG draw order — agree exactly.
// Under a time-varying topology both skip arcs that are not live this
// slot, and both report the sender's arc id, the index of all per-link
// state.
#pragma once

#include <cstddef>
#include <vector>

#include "net/network.hpp"
#include "net/topology_provider.hpp"
#include "net/types.hpp"

namespace m2hew::sim {

class SlotMedium {
 public:
  /// Outcome of one (listener, channel) resolution: a unique audible
  /// sender with its arc id, a collision, or (kInvalidNode, false) =
  /// silence.
  struct Resolution {
    net::NodeId sender = net::kInvalidNode;
    std::size_t arc = net::Network::kNoArc;
    bool collision = false;
  };

  /// `indexed` = false builds an empty medium (no bucket storage); only
  /// resolve_reference() may be used then.
  SlotMedium(net::ChannelId universe_size, bool indexed);

  /// Clears the previous slot's buckets (touched channels only).
  void begin_slot();

  /// Registers one transmitter. Must be called in ascending node id so
  /// buckets stay id-sorted; a node may appear in several buckets (one
  /// per transmitting radio) but at most once per channel.
  void add_transmitter(net::ChannelId channel, net::NodeId node);

  /// Indexed resolution of (listener, channel) against this slot's
  /// buckets, over the live arcs of `network`.
  [[nodiscard]] Resolution resolve(const net::Network& network,
                                   net::LiveArcs live, net::NodeId listener,
                                   net::ChannelId channel) const;

  /// Reference resolution: scan the listener's in-links, asking the
  /// engine whether each in-neighbor currently emits on `channel`
  /// (`transmits_on(v)`). Kept as the naive executable specification;
  /// bit-identical to resolve() for the same transmitter set.
  template <typename TransmitsOn>
  [[nodiscard]] static Resolution resolve_reference(
      const net::Network& network, net::LiveArcs live, net::NodeId listener,
      net::ChannelId channel, const TransmitsOn& transmits_on) {
    Resolution out;
    const std::size_t first = network.first_in_arc(listener);
    const auto in = network.in_links(listener);
    for (std::size_t k = 0; k < in.size(); ++k) {
      if (!transmits_on(in[k].from) || !live(first + k) ||
          !in[k].span->contains(channel)) {
        continue;
      }
      if (out.sender != net::kInvalidNode) {
        out.collision = true;
        break;
      }
      out.sender = in[k].from;
      out.arc = first + k;
    }
    return out;
  }

 private:
  std::vector<std::vector<net::NodeId>> buckets_;
  std::vector<net::ChannelId> touched_;
};

}  // namespace m2hew::sim
