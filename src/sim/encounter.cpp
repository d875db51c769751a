#include "sim/encounter.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace m2hew::sim {

EncounterIndex::EncounterIndex(const net::EpochTopologyProvider& provider,
                               std::uint64_t epoch_slots,
                               std::uint64_t max_slots)
    : network_(&provider.union_network()) {
  M2HEW_CHECK(epoch_slots >= 1 && max_slots >= 1);
  const std::size_t epochs = provider.epoch_count();

  // Arc ids are receiver-major, so contacts come out in that order.
  contact_off_.reserve(network_->arc_count() + 1);
  contact_off_.push_back(0);
  for (std::size_t arc = 0; arc < network_->arc_count(); ++arc) {
    // Walk the epoch schedule for this arc, closing a contact at every
    // live→absent transition (or at the schedule's end).
    std::uint64_t run_start = 0;
    bool in_run = false;
    for (std::size_t e = 0; e < epochs; ++e) {
      const bool active = provider.live(e)(arc);
      if (active && !in_run) {
        in_run = true;
        run_start = static_cast<std::uint64_t>(e) * epoch_slots;
      } else if (!active && in_run) {
        in_run = false;
        const std::uint64_t run_end =
            static_cast<std::uint64_t>(e) * epoch_slots;
        if (run_start < max_slots) {
          contacts_.push_back({run_start, std::min(run_end, max_slots)});
        }
      }
    }
    // The last epoch extends to the end of the trial budget (runs longer
    // than the schedule stay on the final epoch).
    if (in_run && run_start < max_slots) {
      contacts_.push_back({run_start, max_slots});
    }
    contact_off_.push_back(contacts_.size());
  }
}

std::size_t EncounterIndex::contact_at(net::NodeId sender,
                                       net::NodeId receiver,
                                       std::uint64_t slot) const {
  const std::size_t arc = network_->in_arc(sender, receiver);
  if (arc == net::Network::kNoArc) return npos;

  // Last contact of this arc starting at or before `slot`.
  const auto c_begin =
      contacts_.begin() + static_cast<std::ptrdiff_t>(contact_off_[arc]);
  const auto c_end =
      contacts_.begin() + static_cast<std::ptrdiff_t>(contact_off_[arc + 1]);
  const auto c = std::upper_bound(
      c_begin, c_end, slot,
      [](std::uint64_t s, const Contact& contact) {
        return s < contact.start_slot;
      });
  if (c == c_begin) return npos;
  const auto idx = static_cast<std::size_t>((c - 1) - contacts_.begin());
  return slot < contacts_[idx].end_slot ? idx : npos;
}

EncounterTracker::EncounterTracker(const EncounterIndex& index)
    : index_(&index), first_detection_(index.contact_count(), -1.0) {}

void EncounterTracker::on_reception(std::uint64_t slot, net::NodeId sender,
                                    net::NodeId receiver) {
  const std::size_t c = index_->contact_at(sender, receiver, slot);
  if (c == EncounterIndex::npos) return;  // reception outside any contact
  if (first_detection_[c] < 0.0) {
    first_detection_[c] = static_cast<double>(slot);
  }
}

EncounterReport EncounterTracker::report() const {
  EncounterReport r;
  const std::vector<Contact>& contacts = index_->contacts();
  r.contacts = contacts.size();
  for (std::size_t c = 0; c < contacts.size(); ++c) {
    if (first_detection_[c] < 0.0) continue;
    ++r.detected;
    const double latency =
        first_detection_[c] - static_cast<double>(contacts[c].start_slot);
    const double duration = static_cast<double>(contacts[c].end_slot -
                                                contacts[c].start_slot);
    r.detection_latency.push_back(latency);
    r.latency_over_duration.push_back(latency / duration);
  }
  return r;
}

}  // namespace m2hew::sim
