// Deterministic fault-injection and network-dynamics layer.
//
// The paper's guarantees (Thms 1–3, 9/10) assume a static network: fixed
// node set, i.i.d.-reliable channels, and A(u) frozen for the whole run.
// A FaultPlan relaxes exactly those assumptions, once, for all three
// engines — the plan rides in the shared EngineCommon config and the
// engines consult a per-trial FaultState built from it:
//
//  (a) node churn        — seed-derived crash/recover schedules per node;
//  (b) bursty loss       — a two-state Gilbert–Elliott chain per directed
//                          link replacing the i.i.d. loss_probability;
//  (c) spectrum dynamics — scheduled primary users (activation intervals)
//                          that change the effective A(u) mid-run;
//  (d) drift wander      — async only: per-node piecewise drift within
//                          the configured δ bound instead of a constant;
//  (e) adversaries       — seed-derived malicious roles: always-on channel
//                          jammers, Byzantine advertisers announcing fake
//                          IDs (ghost inflation), and selective
//                          non-responders (docs/MODEL.md "Adversary model
//                          & trust maintenance").
//
// Determinism contract (docs/EXTENDING.md "Fault types"): every fault
// stream derives from the trial's root seed through SeedSequence::derive
// with a fault-specific salt — derive() is pure, so an all-disabled plan
// leaves every existing stream untouched and reproduces pre-fault runs
// bit-identically; churn schedules are fixed before the run starts; the
// Gilbert–Elliott chain draws from the shared loss stream in the same
// (listener order) positions the i.i.d. draw would use, so indexed vs
// reference reception and multi-radio R=1 vs slot-engine parity hold with
// any plan attached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "net/network.hpp"
#include "net/primary_user.hpp"
#include "net/types.hpp"
#include "sim/discovery_state.hpp"
#include "sim/radio.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace m2hew::sim {

/// Salt for the per-node churn-schedule streams: node u's schedule is
/// drawn from Rng(seeds.derive(u, kChurnStreamSalt)), disjoint from the
/// node policy stream derive(u), the loss stream derive(N+1) and the
/// async clock stream derive(u, 0xC10C).
inline constexpr std::uint64_t kChurnStreamSalt = 0xFA17;

/// Salt for the per-node adversary-role streams: node u's role (and its
/// attack parameters — jam channel, fake ID, victim set) is drawn from
/// Rng(seeds.derive(u, kAdversaryStreamSalt)), disjoint from every other
/// stream (policy derive(u), loss derive(N+1), churn 0xFA17, clocks
/// 0xC10C, mobility 0x30B1).
inline constexpr std::uint64_t kAdversaryStreamSalt = 0xAD5A;

/// Which attack the adversary population mounts. kMix assigns each
/// adversary one of the three concrete attacks uniformly — and because the
/// adversary coin is the FIRST draw of the role stream, switching the
/// attack type keeps the adversary node set fixed (only the behaviour
/// changes), which is what the E26 attack-type sweep compares.
enum class AdversaryAttack : std::uint8_t {
  kJam = 0,           ///< always-on noise on one fixed channel of A(u)
  kByzantine = 1,     ///< elevated-rate announcements of a fake node ID
  kNonResponder = 2,  ///< honest schedule, but victims never decode it
  kMix = 3,           ///< uniform mix of the three
};

/// Per-node role materialized by FaultState from an AdversarySpec.
enum class AdversaryRole : std::uint8_t {
  kHonest = 0,
  kJammer = 1,
  kByzantine = 2,
  kNonResponder = 3,
};

/// Seed-derived adversary population. Each node is independently an
/// adversary with probability `fraction`; adversaries play one of three
/// roles (see AdversaryAttack):
///
///  - a *jammer* never runs its policy (no stream draws); it transmits
///    noise every slot on one channel drawn uniformly from its A(u). The
///    noise propagates exactly like a discovery message (only along arcs
///    whose span carries the channel), colliding with legitimate traffic;
///    a lone jammer on the listener's channel reads as a collision.
///  - a *Byzantine advertiser* replaces its policy with a fixed-rate
///    announcer: each slot it picks a channel uniformly from A(u) and
///    transmits with probability `byzantine_tx` (one uniform pick + one
///    coin, the same draw shape as the paper's policies). Its message
///    announces `fake id` — drawn uniformly from [0, 2n), so it may
///    collide with a real node's ID — instead of its own, polluting
///    listener tables with ghosts while its own real arcs stay unheard.
///  - a *selective non-responder* runs its honest policy unchanged, but a
///    seed-chosen `victim_fraction` subset of its out-neighbors can never
///    decode it (the victims hear silence), silently eroding their recall.
///
/// Role streams derive from kAdversaryStreamSalt, so `fraction == 0`
/// leaves every existing stream untouched (bit-identical to a plan with no
/// adversary block) on all four execution paths.
struct AdversarySpec {
  double fraction = 0.0;
  AdversaryAttack attack = AdversaryAttack::kMix;
  double byzantine_tx = 0.45;    ///< Byzantine per-slot transmit probability
  double victim_fraction = 0.5;  ///< non-responder: P(out-neighbor is victim)

  [[nodiscard]] bool enabled() const noexcept { return fraction > 0.0; }
};

/// Seed-derived node crash/recover schedule. Each node independently
/// crashes with `crash_probability` at a time uniform in
/// [earliest_crash, latest_crash], staying down for a duration uniform in
/// [min_down, max_down]; a drawn duration of zero means the node never
/// recovers (crash-stop). While down a node neither transmits nor listens,
/// its policy is not polled and its radio is off (mirroring the pre-start
/// handling of EngineCommon::starts). Churn is sampled at slot/frame
/// starts, so an in-flight async frame completes before the node goes
/// dark. With `reset_policy_on_recovery` the node restarts its policy from
/// scratch (fresh factory invocation) at its first poll after recovery —
/// modelling a reboot that lost volatile schedule state.
template <typename Time>
struct ChurnSpec {
  double crash_probability = 0.0;
  Time earliest_crash{};
  Time latest_crash{};
  Time min_down{};
  Time max_down{};
  bool reset_policy_on_recovery = false;

  [[nodiscard]] bool enabled() const noexcept {
    return crash_probability > 0.0;
  }
};

/// Two-state Gilbert–Elliott loss chain per directed link, replacing the
/// i.i.d. `loss_probability` when enabled (the two are mutually exclusive;
/// validate_fault_plan enforces loss_probability == 0). The chain advances
/// one step per delivery opportunity (an otherwise-clear reception on the
/// link), then the current state's loss probability decides the outcome —
/// exactly two draws from the shared loss-RNG stream per opportunity, in
/// listener order, so the indexed and reference reception paths stay
/// bit-identical.
struct GilbertElliottSpec {
  bool enabled = false;
  double p_good_to_bad = 0.0;  ///< per-opportunity transition good → bad
  double p_bad_to_good = 0.1;  ///< per-opportunity transition bad → good
  double loss_good = 0.0;      ///< loss probability in the good state
  double loss_bad = 0.9;       ///< loss probability in the bad state
};

/// Async-engine drift perturbation: replace the trial's clocks with
/// per-node PiecewiseDriftClock instances whose drift wanders within
/// ±max_drift (the paper's δ bound), re-drawn at real-time breakpoints
/// spaced uniformly in [min_segment, max_segment]. Seeded from the
/// standard clock stream derive(u, 0xC10C) and taking precedence over
/// AsyncEngineConfig::clock_builder. Ignored by the slotted engines
/// (their time axis has no clocks).
struct DriftWanderSpec {
  bool enabled = false;
  double max_drift = 0.0;      ///< δ bound on |drift|
  double min_segment = 15.0;   ///< min real-time length of a drift segment
  double max_segment = 60.0;   ///< max real-time length of a drift segment
};

/// The full fault plan, carried by EngineCommon<Time>::faults. A
/// default-constructed plan (any() == false) is the static network of the
/// paper and is guaranteed not to perturb any random stream.
template <typename Time>
struct FaultPlan {
  ChurnSpec<Time> churn;
  GilbertElliottSpec burst_loss;
  /// Scheduled primary users switching on/off mid-run. Composes with (OR)
  /// EngineCommon::interference. Requires `positions` (one per node) when
  /// non-empty; PU activation times live on the engine's time axis.
  std::vector<net::ScheduledPrimaryUser> spectrum;
  std::vector<net::Point> positions;
  DriftWanderSpec drift_wander;
  AdversarySpec adversary;

  [[nodiscard]] bool any() const noexcept {
    return churn.enabled() || burst_loss.enabled || !spectrum.empty() ||
           drift_wander.enabled || adversary.enabled();
  }
};

using SlotFaultPlan = FaultPlan<std::uint64_t>;
using AsyncFaultPlan = FaultPlan<double>;

/// Validation for the fault knobs; called from validate_engine_common so
/// every engine checks the plan it is handed.
template <typename Time>
inline void validate_fault_plan(const FaultPlan<Time>& plan,
                                net::NodeId nodes,
                                double loss_probability) {
  const ChurnSpec<Time>& ch = plan.churn;
  M2HEW_CHECK(ch.crash_probability >= 0.0 && ch.crash_probability <= 1.0);
  M2HEW_CHECK(ch.latest_crash >= ch.earliest_crash);
  M2HEW_CHECK(ch.max_down >= ch.min_down);
  if constexpr (std::is_floating_point_v<Time>) {
    M2HEW_CHECK(ch.earliest_crash >= Time{0} && ch.min_down >= Time{0});
  }
  const GilbertElliottSpec& ge = plan.burst_loss;
  M2HEW_CHECK(ge.p_good_to_bad >= 0.0 && ge.p_good_to_bad <= 1.0);
  M2HEW_CHECK(ge.p_bad_to_good >= 0.0 && ge.p_bad_to_good <= 1.0);
  M2HEW_CHECK(ge.loss_good >= 0.0 && ge.loss_good < 1.0);
  M2HEW_CHECK(ge.loss_bad >= 0.0 && ge.loss_bad < 1.0);
  if (ge.enabled) {
    M2HEW_CHECK_MSG(loss_probability == 0.0,
                    "Gilbert-Elliott burst loss replaces loss_probability; "
                    "set loss_probability to 0");
  }
  if (!plan.spectrum.empty()) {
    M2HEW_CHECK_MSG(plan.positions.size() == nodes,
                    "spectrum faults need one position per node");
    for (const net::ScheduledPrimaryUser& pu : plan.spectrum) {
      M2HEW_CHECK(pu.user.radius >= 0.0);
      M2HEW_CHECK(pu.on_until >= pu.on_from);
    }
  }
  const DriftWanderSpec& dw = plan.drift_wander;
  M2HEW_CHECK(dw.max_drift >= 0.0 && dw.max_drift < 1.0);
  if (dw.enabled) {
    M2HEW_CHECK(dw.min_segment > 0.0 && dw.max_segment >= dw.min_segment);
  }
  const AdversarySpec& adv = plan.adversary;
  M2HEW_CHECK_MSG(adv.fraction >= 0.0 && adv.fraction <= 1.0,
                  "adversary fraction must be in [0, 1]");
  M2HEW_CHECK_MSG(adv.byzantine_tx > 0.0 && adv.byzantine_tx <= 1.0,
                  "byzantine transmit probability must be in (0, 1]");
  M2HEW_CHECK_MSG(adv.victim_fraction >= 0.0 && adv.victim_fraction <= 1.0,
                  "non-responder victim fraction must be in [0, 1]");
}

/// Robustness metrics computed at the end of a faulted run. `enabled` is
/// false (and every count zero) when the trial carried no fault plan.
/// "End of run" is the last executed slot (slotted engines) / the time of
/// the last processed event (async engine). Time-like fields are on the
/// engine's time axis.
struct RobustnessReport {
  bool enabled = false;
  std::size_t crashed_nodes = 0;  ///< nodes that crashed at least once
  std::size_t down_at_end = 0;    ///< nodes still down when the run ended
  /// Links with both endpoints up at the end of the run — the ground
  /// truth surviving-recall is measured against.
  std::size_t surviving_links = 0;
  std::size_t covered_surviving_links = 0;
  /// Neighbor-table entries naming a node that is down at the end of the
  /// run, or whose common channels are all blocked by active spectrum
  /// faults at the end of the run — stale knowledge a static-model
  /// algorithm never invalidates.
  std::size_t ghost_entries = 0;
  /// Links whose crashed endpoint(s) all recovered (both endpoints up at
  /// the end), i.e. links eligible for rediscovery...
  std::size_t recovered_links = 0;
  /// ...and how many of those were actually re-heard after the recovery.
  std::size_t rediscovered_links = 0;
  /// Mean / max time from the link's (latest) recovery to its first
  /// post-recovery reception, over rediscovered links.
  double mean_rediscovery = 0.0;
  double max_rediscovery = 0.0;

  // --- Adversary metrics (zero unless the plan carried an AdversarySpec).
  /// True iff the plan's adversary block was enabled for this trial.
  bool adversary = false;
  /// Nodes assigned a non-honest role by the seed-derived coin.
  std::size_t adversary_nodes = 0;
  /// Covered directed arcs of the real network at the end of the run —
  /// the truthful content of the union of all neighbor tables.
  std::size_t real_entries = 0;
  /// Admitted, un-evicted table entries naming a Byzantine fake ID that
  /// does not alias a covered real arc (an entry whose announced ID is a
  /// real covered in-neighbor is counted once, as real — the
  /// double-counting rule fault_plan_test pins down). Also added to
  /// ghost_entries: fake IDs are ghost inflation.
  std::size_t fake_entries = 0;
  /// (listener, fake ID) pairs a trust policy rejected at least once —
  /// each rejection also evicts the pair's table entry.
  std::size_t isolated_fakes = 0;
  /// (listener, announced ID) pairs rejected whose announced ID is NOT a
  /// fake in play: the trust policy's false positives.
  std::size_t honest_isolated = 0;
  /// Mean / max time from a fake ID's first decode at a listener to its
  /// first rejection there, over isolated (listener, fake ID) pairs.
  double mean_isolation = 0.0;
  double max_isolation = 0.0;

  /// Recall restricted to surviving true neighbors: covered surviving
  /// links / surviving links (1 when no link survived). Links with a
  /// jammer or Byzantine endpoint are excluded from both counts — those
  /// roles never announce their real ID nor listen, so their arcs are
  /// undiscoverable by construction; non-responder arcs stay in (their
  /// victims' misses are exactly the attack's recall cost).
  [[nodiscard]] double surviving_recall() const noexcept {
    return surviving_links == 0
               ? 1.0
               : static_cast<double>(covered_surviving_links) /
                     static_cast<double>(surviving_links);
  }

  /// Precision under attack: real entries / (real + fake entries); 1 when
  /// the tables are empty. Ghost-from-churn staleness is accounted
  /// separately (ghost_entries), so this isolates adversarial pollution.
  [[nodiscard]] double precision_under_attack() const noexcept {
    const std::size_t total = real_entries + fake_entries;
    return total == 0 ? 1.0
                      : static_cast<double>(real_entries) /
                            static_cast<double>(total);
  }
};

/// Per-trial fault state: churn schedules drawn up front from the trial's
/// seed tree, the Gilbert–Elliott chain states, the precomputed spectrum
/// coverage geometry, and the rediscovery tracker. Engines build one per
/// run (the plan and network must outlive it) and consult it on their hot
/// paths; with an all-disabled plan every query is a flag test.
template <typename Time>
class FaultState {
 public:
  FaultState(const net::Network& network, const util::SeedSequence& seeds,
             const FaultPlan<Time>& plan);

  [[nodiscard]] bool any() const noexcept { return plan_->any(); }
  [[nodiscard]] bool churn() const noexcept { return churn_; }
  [[nodiscard]] bool has_spectrum() const noexcept {
    return !plan_->spectrum.empty();
  }
  [[nodiscard]] std::size_t adversary_count() const noexcept {
    return adversary_count_;
  }

  /// Node u's materialized role (kHonest whenever the spec is disabled).
  [[nodiscard]] AdversaryRole role(net::NodeId u) const noexcept {
    return adversary_ ? static_cast<AdversaryRole>(role_[u])
                      : AdversaryRole::kHonest;
  }

  /// The fixed channel a jammer transmits noise on (valid iff kJammer).
  [[nodiscard]] net::ChannelId jam_channel(net::NodeId u) const noexcept {
    return jam_channel_[u];
  }

  /// The fake ID a Byzantine advertiser announces (valid iff kByzantine).
  /// Drawn from [0, 2n), so it may alias a real node's ID.
  [[nodiscard]] net::NodeId fake_id(net::NodeId u) const noexcept {
    return fake_id_[u];
  }

  /// True iff arc `arc` (net::Network arc id of sender → receiver) runs
  /// from a non-responder to one of its victims: the reception is
  /// suppressed (reads as silence, no loss draw consumed).
  [[nodiscard]] bool suppressed(std::size_t arc) const noexcept {
    return !victim_.empty() && victim_[arc] != 0;
  }

  /// True iff node u's role replaces its policy (jammer or Byzantine).
  /// Honest nodes and non-responders keep their honest schedule; a
  /// non-responder's suppression happens at its victims' decode step.
  [[nodiscard]] bool scripted(net::NodeId u) const noexcept {
    const AdversaryRole r = role(u);
    return r == AdversaryRole::kJammer || r == AdversaryRole::kByzantine;
  }

  /// The action a scripted node takes in place of its policy, for every
  /// engine (one slot or one frame): a jammer transmits noise on its fixed
  /// channel without any draws; a Byzantine announcer draws one uniform
  /// channel pick from A(u) then one Bernoulli(byzantine_tx) coin from the
  /// node's policy stream — the exact draw shape of the paper's policies,
  /// so the slot engine and the SoA kernel stay bit-identical. Call only
  /// when scripted(u).
  [[nodiscard]] SlotAction adversary_action(net::NodeId u,
                                            util::Rng& rng) const;

  /// Records a listener decoding a Byzantine announcement: refreshes (or
  /// creates, or un-evicts) the (receiver, fake ID) table entry. Returns
  /// true iff the entry is new at this listener (first_time semantics for
  /// policy feedback). Call only when `sender` is Byzantine.
  [[nodiscard]] bool note_fake_decode(net::NodeId sender,
                                      net::NodeId receiver, Time t);

  /// Records a trust-policy rejection of `announced` at `receiver`. If the
  /// announced ID is a fake in play: evicts the table entry and, on the
  /// first rejection, stamps the pair's time-to-isolation. Otherwise it
  /// counts (deduplicated) as a false-positive block. No-op unless the
  /// adversary spec is enabled.
  void note_isolation(net::NodeId receiver, net::NodeId announced, Time t);

  /// True iff node u is crashed at time t.
  [[nodiscard]] bool down_at(net::NodeId u, Time t) const noexcept {
    if (!churn_) return false;
    const NodeChurn& c = schedule_[u];
    if (!c.crashes || t < c.crash) return false;
    return !c.recovers || t < c.recovery;
  }

  /// True exactly once per recovery, at node u's first poll at/after its
  /// recovery time, iff the plan asks for a policy reset. The engine must
  /// then rebuild u's policy (TrialSetup::reset_policy).
  [[nodiscard]] bool consume_reset(net::NodeId u, Time t) noexcept {
    if (!churn_ || reset_pending_.empty() || reset_pending_[u] == 0) {
      return false;
    }
    const NodeChurn& c = schedule_[u];
    if (t < c.recovery) return false;
    reset_pending_[u] = 0;
    return true;
  }

  /// True iff an active scheduled PU blocks channel c at node u at time t.
  /// Composes with EngineCommon::interference by OR at the call sites.
  [[nodiscard]] bool spectrum_blocked(Time t, net::NodeId u,
                                      net::ChannelId c) const;

  /// The loss decision for one otherwise-clear reception on arc `arc`
  /// (net::Network arc id of sender → receiver). With burst loss enabled:
  /// advance the arc's Gilbert–Elliott chain (one draw) then draw the
  /// state's loss probability (one draw). Otherwise: the engines' original
  /// i.i.d. behaviour — one draw iff iid_loss > 0. Call in listener order
  /// only.
  [[nodiscard]] bool message_lost(std::size_t arc, util::Rng& loss_rng,
                                  double iid_loss);

  /// Records a clear reception on arc `arc` (sender → receiver) for
  /// rediscovery tracking (first reception at/after the link's recovery
  /// threshold). Cheap no-op without churn.
  void note_reception(net::NodeId sender, net::NodeId receiver,
                      std::size_t arc, Time t);

  /// Computes the robustness metrics against the final coverage, given
  /// per arc id: covered[a] == 1 iff arc a is a covered discovery link
  /// (any other value reads as not covered). Neighbor-table entries are
  /// exactly the covered links with the network spans as common channels
  /// — the invariant DiscoveryState::record_reception maintains — so
  /// every engine, with or without a DiscoveryState, assesses through
  /// this one routine. `end` is the engine's last executed slot / last
  /// processed event time.
  [[nodiscard]] RobustnessReport assess(std::span<const std::uint8_t> covered,
                                        Time end) const;
  [[nodiscard]] RobustnessReport assess(const DiscoveryState& state,
                                        Time end) const {
    return assess(state.arc_coverage(), end);
  }

 private:
  struct NodeChurn {
    bool crashes = false;
    bool recovers = false;
    Time crash{};
    Time recovery{};
  };

  /// One (listener, announced fake ID) table entry: per-listener counts
  /// are bounded by the listener's Byzantine in-degree, so linear scans
  /// stay cheap.
  struct FakeEntry {
    net::NodeId id = net::kInvalidNode;
    double first_seen = 0.0;
    double isolated_at = 0.0;
    bool evicted = false;
    bool isolated = false;
  };

  const net::Network* network_;
  const FaultPlan<Time>* plan_;
  bool churn_ = false;
  bool adversary_ = false;
  net::NodeId n_ = 0;
  std::size_t adversary_count_ = 0;
  std::vector<NodeChurn> schedule_;
  std::vector<std::uint8_t> reset_pending_;
  // Per-link state is per arc (net::Network arc id), O(arcs):
  std::vector<std::uint8_t> ge_state_;  // GE chain state; 0 = good, 1 = bad
  std::vector<double> post_recovery_;   // first reception ≥ threshold; -1 unset
  std::vector<std::vector<std::uint32_t>> spectrum_cover_;  // PU idx per node
  std::vector<std::uint8_t> role_;              // n; AdversaryRole values
  std::vector<net::ChannelId> jam_channel_;     // n; valid iff kJammer
  std::vector<net::NodeId> fake_id_;            // n; valid iff kByzantine
  std::vector<net::NodeId> fake_ids_;           // sorted distinct fake IDs in play
  std::vector<std::vector<net::ChannelId>> byz_avail_;  // A(u), Byzantine only
  std::vector<std::uint8_t> victim_;  // per arc; empty without non-responders
  std::vector<std::vector<FakeEntry>> fake_heard_;      // per listener
  std::vector<std::vector<net::NodeId>> honest_blocked_;  // per listener, sorted
};

extern template class FaultState<std::uint64_t>;
extern template class FaultState<double>;

}  // namespace m2hew::sim
