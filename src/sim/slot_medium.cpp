#include "sim/slot_medium.hpp"

namespace m2hew::sim {

SlotMedium::SlotMedium(net::ChannelId universe_size, bool indexed)
    : buckets_(indexed ? universe_size : 0) {}

void SlotMedium::begin_slot() {
  for (const net::ChannelId c : touched_) buckets_[c].clear();
  touched_.clear();
}

void SlotMedium::add_transmitter(net::ChannelId channel, net::NodeId node) {
  std::vector<net::NodeId>& bucket = buckets_[channel];
  if (bucket.empty()) touched_.push_back(channel);
  bucket.push_back(node);
}

SlotMedium::Resolution SlotMedium::resolve(const net::Network& network,
                                           net::LiveArcs live,
                                           net::NodeId listener,
                                           net::ChannelId channel) const {
  // Every bucket entry already transmits on `channel`, so filtering by the
  // live in-arcs yields exactly the reference scan's match set — and
  // therefore the same sender/collision outcome.
  Resolution out;
  for (const net::NodeId v : buckets_[channel]) {
    const std::size_t arc = network.in_arc(v, listener);
    if (arc == net::Network::kNoArc || !live(arc) ||
        !network.arc_span(arc).contains(channel)) {
      continue;
    }
    if (out.sender != net::kInvalidNode) {
      out.collision = true;
      break;
    }
    out.sender = v;
    out.arc = arc;
  }
  return out;
}

}  // namespace m2hew::sim
