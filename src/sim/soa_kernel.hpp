// SoaSlotKernel: structure-of-arrays re-implementation of the slot
// engine's inner loop. Every trial whose policy is a policy table and has
// no object wrapper runs here (runner::spec_policy), from small sweeps
// to the N=10⁵–10⁶ regime the paper's asymptotic claims live in.
//
// run_slot_engine pays, per node per slot, a virtual policy dispatch and
// (per trial) a heap-allocated policy object plus a DiscoveryState. This
// kernel replaces all three:
//
//   * policy-as-data  — per-node flat arrays (stage counter, stage length,
//     degree estimate) stepped against a precomputed probability matrix
//     (sim/soa_policy.hpp, built by core); no virtual calls, no per-node
//     allocations;
//   * transmitter-driven reception — each slot is one action pass over
//     the nodes (draw, PU suppression, activity tally), then the shared
//     medium's scatter (sim/slot_medium.hpp): every transmitter walks its
//     out-arcs in the network's out-arc CSR and marks the listeners it
//     reaches. The hit listeners are then resolved in ascending node id,
//     so the disposition chain, coverage and on_reception run in the
//     oracle's listener order. Work per slot is ≈ p·arcs out-arc visits
//     plus N/64 bitset words, where a listener-side scan costs
//     ≈ (1−p)·arcs;
//   * arc coverage    — covered/first-slot are per-arc arrays indexed by
//     the network's arc id (net::Network::in_arc), the same numbering the
//     fault layer's per-link state uses; O(arcs);
//   * per-trial arena — every array is sized at construction or on the
//     first run() and reused across run() calls; steady-state slots
//     allocate nothing.
//
// Bit-exactness contract: for any network, SoaPolicyTable built from a
// core::SyncPolicySpec, and SlotEngineConfig, run() produces the same
// completion flag/slot, per-node activity, per-link first-coverage slots,
// on_reception call sequence and robustness report as run_slot_engine with
// the spec's oracle factory (policies draw channel-then-coin from the same
// per-node streams; losses draw in listener order from the same loss
// stream). The randomized equivalence suite (tests/soa_kernel_test.cpp)
// enforces this, exactly as indexed==reference reception was pinned before.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/energy.hpp"
#include "sim/fault_plan.hpp"
#include "sim/radio.hpp"
#include "sim/slot_engine.hpp"
#include "sim/slot_medium.hpp"
#include "sim/soa_policy.hpp"

namespace m2hew::sim {

/// Result of one SoA-kernel trial. Mirrors SlotEngineResult, with the
/// DiscoveryState replaced by per-arc coverage indexed by the network's
/// arc id.
struct SoaSlotKernelResult {
  /// The network the kernel was flattened from (the union network under a
  /// topology provider); resolves links to arc ids, so it must outlive
  /// is_covered/first_coverage_slot calls.
  const net::Network* network = nullptr;
  bool complete = false;
  std::uint64_t completion_slot = 0;
  std::uint64_t slots_executed = 0;
  std::vector<RadioActivity> activity;
  RobustnessReport robustness;

  std::uint64_t total_links = 0;
  std::uint64_t covered_links = 0;
  std::uint64_t receptions = 0;

  /// Per arc id: 1 iff the link was covered, and the global slot of its
  /// first coverage (-1.0 while uncovered).
  std::vector<std::uint8_t> covered;
  std::vector<double> first_slot;

  /// False when the pair is not a covered discovery link, including when
  /// from→to is not an arc at all (as DiscoveryState::is_covered).
  [[nodiscard]] bool is_covered(net::Link link) const;
  /// First-coverage slot of a covered link; requires is_covered(link).
  [[nodiscard]] double first_coverage_slot(net::Link link) const;
};

class SoaSlotKernel {
 public:
  /// Flattens the network once into its available-channel CSR. Reused
  /// across run() calls (trials).
  explicit SoaSlotKernel(const net::Network& network);

  /// Runs one trial. `config.indexed_reception` is ignored (the kernel has
  /// a single reception path, bit-identical to both engine paths); every
  /// other knob — seed, loss, interference, starts, faults, max_slots,
  /// stop_when_complete, on_reception, topology/epoch_length — behaves
  /// exactly as in run_slot_engine. With a multi-epoch provider the kernel
  /// must have been flattened from the provider's union network; its arc
  /// ids are the ones the provider's live bits index.
  [[nodiscard]] SoaSlotKernelResult run(const SoaPolicyTable& table,
                                        const SlotEngineConfig& config);

 private:
  const net::Network* network_;

  /// A transmitter of the current slot and its channel.
  struct Transmission {
    net::NodeId node;
    net::ChannelId channel;
  };

  // Immutable per-network flattening.
  std::vector<std::size_t> avail_off_;      // n+1
  std::vector<net::ChannelId> avail_flat_;  // A(u) members, ascending

  // Per-slot state, sized once.
  std::vector<net::ChannelId> listen_;  // listening channel or kInvalidChannel
  std::vector<Transmission> tx_;        // this slot's transmitters, by id
  SlotMedium medium_;                   // keyed by node id

  // Per-trial policy state, reset at each run() and sized for the table's
  // law: staged laws use the stage counters, escalating ones the estimate.
  std::vector<std::uint32_t> slot_in_stage_;
  std::vector<std::uint32_t> stage_slots_;
  std::vector<std::uint64_t> estimate_;
  /// Consistent-hop channel law only: node-local active-slot clock
  /// (resets with the policy on churn recovery, like a fresh oracle).
  std::vector<std::uint64_t> hop_clock_;
};

/// One-shot convenience wrapper: flatten, run one trial, return.
[[nodiscard]] SoaSlotKernelResult run_soa_slot_kernel(
    const net::Network& network, const SoaPolicyTable& table,
    const SlotEngineConfig& config);

}  // namespace m2hew::sim
