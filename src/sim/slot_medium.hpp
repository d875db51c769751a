// The shared synchronous channel medium. Every slotted path (the single-
// and multi-radio engines and the SoA kernel) answers the same per-slot
// question from §II: listener u, tuned to channel c, hears sender v iff v
// is the UNIQUE in-neighbor of u emitting on c whose arc to u carries c —
// otherwise u hears a collision (two or more such senders) or silence
// (none). This class owns that resolution once, in the two bit-identical
// strategies the engines switch between (`EngineCommon::indexed_reception`):
//
//   * scatter (default): each transmitter walks its out-arcs
//     (net::Network::out_arcs) and marks the listening radios it reaches —
//     tuned to its channel, over an arc live this slot whose span carries
//     the channel (one word probe). A radio's first hit records the arc
//     and sets its bit in a hit bitset; a second hit marks a collision.
//     Work per slot is one visit per out-arc of a transmitter, ≈ p·arcs;
//   * reference: the original per-listener scan over the full in-link
//     list, kept as the executable specification for the equivalence
//     property tests.
//
// Hits are keyed by listening radio: the node id with one radio per node,
// (node id, radio index) order otherwise. A node's radios use distinct
// channels, so one transmission hits at most one radio of a receiver, and
// the match set of a radio is exactly the reference scan's — the same
// sender/collision outcome. Callers resolve listeners in key order, so
// policy callbacks and loss draws come in the same order on both paths.
// Both report the sender's arc id, the index of all per-link state.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
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

  /// Key of "no listening radio" for scatter()'s key lookup.
  static constexpr std::uint32_t kNoKey = UINT32_MAX;

  /// A medium over `network` for listening-radio keys [0, keys).
  SlotMedium(const net::Network& network, std::size_t keys)
      : network_(&network), hit_arc_(keys), hits_((keys + 63) / 64) {}

  /// Forgets every hit; call before a slot's first scatter().
  void clear() { std::fill(hits_.begin(), hits_.end(), std::uint64_t{0}); }

  /// Scatters one transmission of `sender` on `channel` over its out-arcs
  /// live this slot. `key_of(receiver, channel)` names the receiver's
  /// radio listening on `channel`, or kNoKey.
  template <typename KeyOf>
  void scatter(net::LiveArcs live, net::NodeId sender, net::ChannelId channel,
               const KeyOf& key_of) {
    const std::size_t first = network_->first_out_arc(sender);
    const auto out = network_->out_arcs(sender);
    for (std::size_t k = 0; k < out.size(); ++k) {
      const std::uint32_t key = key_of(out[k].to, channel);
      if (key == kNoKey || !live(out[k].arc) ||
          !network_->out_arc_carries(first + k, channel)) {
        continue;
      }
      std::uint64_t& word = hits_[key >> 6];
      const std::uint64_t bit = 1ULL << (key & 63);
      hit_arc_[key] = (word & bit) != 0 ? kCollided : out[k].arc;
      word |= bit;
    }
  }

  /// What the radio `key` heard from this slot's scatter() calls.
  [[nodiscard]] Resolution heard(std::uint32_t key) const {
    if ((hits_[key >> 6] & (1ULL << (key & 63))) == 0) return {};
    return resolution(hit_arc_[key]);
  }

  /// Calls f(key, resolution) for every radio hit this slot, in ascending
  /// key order; radios without a hit heard silence.
  template <typename F>
  void for_each_hit(const F& f) const {
    for (std::size_t w = 0; w < hits_.size(); ++w) {
      for (std::uint64_t bits = hits_[w]; bits != 0; bits &= bits - 1) {
        const auto key = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        f(key, resolution(hit_arc_[key]));
      }
    }
  }

  /// Reference resolution: scan the listener's in-links, asking the
  /// engine whether each in-neighbor currently emits on `channel`
  /// (`transmits_on(v)`). Kept as the naive executable specification;
  /// bit-identical to the scatter for the same transmitter set.
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
  /// hit_arc_ entry of a radio reached by two or more transmitters (arc
  /// ids are below it, net::Network checks).
  static constexpr std::uint32_t kCollided = UINT32_MAX;

  [[nodiscard]] Resolution resolution(std::uint32_t arc) const {
    if (arc == kCollided) return {.collision = true};
    return {.sender = network_->arc_source(arc), .arc = arc};
  }

  const net::Network* network_;
  std::vector<std::uint32_t> hit_arc_;  // per key: first hit's arc, or kCollided
  std::vector<std::uint64_t> hits_;     // bitset: keys with a hit this slot
};

}  // namespace m2hew::sim
