// Encounter (contact) accounting for time-varying topologies.
//
// Under mobility a directed link (v, u) is not simply "covered or not":
// it flickers as the nodes drift in and out of range. The natural unit is
// the *contact* — a maximal run of consecutive epochs in which the arc
// exists. The contact-tracing questions (ROADMAP open item 4) are then:
// how quickly after a contact opens is the neighbor detected (detection
// latency vs contact duration), what fraction of contacts is missed
// entirely, and how much energy each detected contact costs.
//
// EncounterIndex precomputes the contact intervals once per
// (provider, epoch_length, max_slots) — they are a pure function of the
// topology schedule, shared read-only by every trial. EncounterTracker is
// the cheap per-trial part: fed every reception (via the engines'
// on_reception hook), it latches the first detection slot inside each
// contact and summarizes into an EncounterReport.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/topology_provider.hpp"
#include "net/types.hpp"

namespace m2hew::sim {

/// One contact: the arc exists during global slots
/// [start_slot, end_slot), end clamped to the trial budget.
struct Contact {
  std::uint64_t start_slot = 0;
  std::uint64_t end_slot = 0;
};

/// Per-trial encounter summary (see EncounterTracker::report).
struct EncounterReport {
  std::uint64_t contacts = 0;  ///< observable contacts in the schedule
  std::uint64_t detected = 0;  ///< contacts with >= 1 reception inside
  /// Per detected contact: slots from contact start to first reception,
  /// and the same latency normalized by the contact's duration (in [0,1)).
  std::vector<double> detection_latency;
  std::vector<double> latency_over_duration;
};

/// Immutable contact schedule of a topology provider: for every directed
/// union arc, the maximal runs of consecutive epochs with its live bit set,
/// converted to slot intervals (epoch e spans
/// [e·epoch_slots, (e+1)·epoch_slots)). Contacts starting at or beyond
/// `max_slots` are unobservable and dropped; the rest are clamped.
class EncounterIndex {
 public:
  /// The provider must outlive the index (contact_at looks arcs up in its
  /// union network).
  EncounterIndex(const net::EpochTopologyProvider& provider,
                 std::uint64_t epoch_slots, std::uint64_t max_slots);

  [[nodiscard]] std::size_t contact_count() const noexcept {
    return contacts_.size();
  }
  [[nodiscard]] const std::vector<Contact>& contacts() const noexcept {
    return contacts_;
  }

  /// Index into contacts() of the contact of arc (sender → receiver)
  /// containing `slot`, or npos if no contact of that arc covers it.
  [[nodiscard]] std::size_t contact_at(net::NodeId sender,
                                       net::NodeId receiver,
                                       std::uint64_t slot) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  // A CSR from union arc ids into the flat contact list (each arc's
  // contacts are start-sorted, so contact_at is one arc lookup and one
  // binary search).
  const net::Network* network_;
  std::vector<std::size_t> contact_off_;  // arc_count + 1
  std::vector<Contact> contacts_;
};

/// Per-trial detection latching. Not thread-safe; one per trial.
class EncounterTracker {
 public:
  explicit EncounterTracker(const EncounterIndex& index);

  /// Feed from the engine's on_reception hook.
  void on_reception(std::uint64_t slot, net::NodeId sender,
                    net::NodeId receiver);

  [[nodiscard]] EncounterReport report() const;

 private:
  const EncounterIndex* index_;
  std::vector<double> first_detection_;  // per contact, -1 = undetected
};

}  // namespace m2hew::sim
