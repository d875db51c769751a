#include "sim/fault_plan.hpp"

#include <algorithm>

namespace m2hew::sim {

namespace {

// Uniform draw in [lo, hi] on the engine's time axis: inclusive integer
// range for slot indices, half-open real range for the async engine (the
// distinction is immaterial for a continuous axis).
template <typename Time>
[[nodiscard]] Time draw_time(util::Rng& rng, Time lo, Time hi) {
  if constexpr (std::is_floating_point_v<Time>) {
    return rng.uniform_double(lo, hi);
  } else {
    return lo + rng.uniform(hi - lo + 1);
  }
}

}  // namespace

template <typename Time>
FaultState<Time>::FaultState(const net::Network& network,
                             const util::SeedSequence& seeds,
                             const FaultPlan<Time>& plan)
    : network_(&network),
      plan_(&plan),
      churn_(plan.churn.enabled()),
      n_(network.node_count()) {
  if (churn_) {
    schedule_.resize(n_);
    reset_pending_.assign(n_, 0);
    for (net::NodeId u = 0; u < n_; ++u) {
      // One private stream per node: the schedule never consumes from the
      // node policy stream or the loss stream, and derive() is pure, so
      // attaching churn perturbs nothing else. All three values are drawn
      // unconditionally to keep the stream layout independent of the
      // crash coin.
      util::Rng rng(seeds.derive(u, kChurnStreamSalt));
      const bool crashes = rng.bernoulli(plan.churn.crash_probability);
      const Time crash = draw_time<Time>(rng, plan.churn.earliest_crash,
                                         plan.churn.latest_crash);
      const Time down =
          draw_time<Time>(rng, plan.churn.min_down, plan.churn.max_down);
      NodeChurn& c = schedule_[u];
      c.crashes = crashes;
      c.crash = crash;
      c.recovers = down > Time{0};
      c.recovery = crash + down;
      if (c.crashes && c.recovers && plan.churn.reset_policy_on_recovery) {
        reset_pending_[u] = 1;
      }
    }
    post_recovery_.assign(network.arc_count(), -1.0);
  }
  if (plan.burst_loss.enabled) {
    ge_state_.assign(network.arc_count(), 0);
  }
  if (plan.adversary.enabled()) {
    adversary_ = true;
    const AdversarySpec& adv = plan.adversary;
    role_.assign(n_, static_cast<std::uint8_t>(AdversaryRole::kHonest));
    jam_channel_.assign(n_, net::kInvalidChannel);
    fake_id_.assign(n_, net::kInvalidNode);
    byz_avail_.resize(n_);
    fake_heard_.resize(n_);
    honest_blocked_.resize(n_);
    for (net::NodeId u = 0; u < n_; ++u) {
      // One private stream per node, like the churn schedules. The first
      // four values are drawn unconditionally so (a) the adversary SET is
      // a function of (seed, fraction) alone — switching the attack type
      // keeps it fixed — and (b) the stream layout never depends on the
      // coin. Only the non-responder victim coins extend the stream, and
      // nothing else ever reads past them.
      util::Rng rng(seeds.derive(u, kAdversaryStreamSalt));
      const bool is_adv = rng.bernoulli(adv.fraction);
      const std::uint64_t role_draw = rng.uniform(3);
      const std::vector<net::ChannelId> avail =
          network.available(u).to_vector();
      M2HEW_CHECK_MSG(!avail.empty(),
                      "adversary faults need non-empty channel sets");
      const net::ChannelId jam =
          avail[static_cast<std::size_t>(rng.uniform(avail.size()))];
      const net::NodeId fake = static_cast<net::NodeId>(
          rng.uniform(2 * static_cast<std::uint64_t>(n_)));
      if (!is_adv) continue;
      ++adversary_count_;
      AdversaryRole role;
      switch (adv.attack) {
        case AdversaryAttack::kJam:
          role = AdversaryRole::kJammer;
          break;
        case AdversaryAttack::kByzantine:
          role = AdversaryRole::kByzantine;
          break;
        case AdversaryAttack::kNonResponder:
          role = AdversaryRole::kNonResponder;
          break;
        case AdversaryAttack::kMix:
        default:
          role = static_cast<AdversaryRole>(1 + role_draw);
          break;
      }
      role_[u] = static_cast<std::uint8_t>(role);
      if (role == AdversaryRole::kJammer) {
        jam_channel_[u] = jam;
      } else if (role == AdversaryRole::kByzantine) {
        fake_id_[u] = fake;
        fake_ids_.push_back(fake);
        byz_avail_[u] = avail;
      } else {
        // One victim coin per discovery link u→v, in ascending v, over
        // the union network so the victim set is epoch-invariant.
        if (victim_.empty()) victim_.assign(network.arc_count(), 0);
        for (const net::NodeId v : network.topology().out_neighbors(u)) {
          const std::size_t arc = network.in_arc(u, v);
          if (!network.arc_span(arc).empty() &&
              rng.bernoulli(adv.victim_fraction)) {
            victim_[arc] = 1;
          }
        }
      }
    }
    std::sort(fake_ids_.begin(), fake_ids_.end());
    fake_ids_.erase(std::unique(fake_ids_.begin(), fake_ids_.end()),
                    fake_ids_.end());
  }
  if (!plan.spectrum.empty()) {
    M2HEW_CHECK(plan.positions.size() == n_);
    for (const net::ScheduledPrimaryUser& pu : plan.spectrum) {
      M2HEW_CHECK_MSG(pu.user.channel < network.universe_size(),
                      "spectrum-fault PU channel outside universe");
    }
    spectrum_cover_.resize(n_);
    for (std::uint32_t p = 0; p < plan.spectrum.size(); ++p) {
      const net::ScheduledPrimaryUser& pu = plan.spectrum[p];
      for (net::NodeId u = 0; u < n_; ++u) {
        if (net::squared_distance(pu.user.position, plan.positions[u]) <=
            pu.user.radius * pu.user.radius) {
          spectrum_cover_[u].push_back(p);
        }
      }
    }
  }
}

template <typename Time>
bool FaultState<Time>::spectrum_blocked(Time t, net::NodeId u,
                                        net::ChannelId c) const {
  if (spectrum_cover_.empty()) return false;
  for (const std::uint32_t p : spectrum_cover_[u]) {
    const net::ScheduledPrimaryUser& pu = plan_->spectrum[p];
    if (pu.user.channel == c && pu.active_at(static_cast<double>(t))) {
      return true;
    }
  }
  return false;
}

template <typename Time>
bool FaultState<Time>::message_lost(std::size_t arc, util::Rng& loss_rng,
                                    double iid_loss) {
  if (plan_->burst_loss.enabled) {
    const GilbertElliottSpec& ge = plan_->burst_loss;
    std::uint8_t& s = ge_state_[arc];
    if (loss_rng.bernoulli(s == 0 ? ge.p_good_to_bad : ge.p_bad_to_good)) {
      s ^= 1u;
    }
    return loss_rng.bernoulli(s == 0 ? ge.loss_good : ge.loss_bad);
  }
  return iid_loss > 0.0 && loss_rng.bernoulli(iid_loss);
}

template <typename Time>
SlotAction FaultState<Time>::adversary_action(net::NodeId u,
                                              util::Rng& rng) const {
  if (role(u) == AdversaryRole::kJammer) {
    return SlotAction{Mode::kTransmit, jam_channel_[u]};
  }
  const std::vector<net::ChannelId>& avail = byz_avail_[u];
  const net::ChannelId c =
      avail[static_cast<std::size_t>(rng.uniform(avail.size()))];
  const bool tx = rng.bernoulli(plan_->adversary.byzantine_tx);
  return SlotAction{tx ? Mode::kTransmit : Mode::kQuiet, c};
}

template <typename Time>
bool FaultState<Time>::note_fake_decode(net::NodeId sender,
                                        net::NodeId receiver, Time t) {
  const net::NodeId f = fake_id_[sender];
  std::vector<FakeEntry>& tab = fake_heard_[receiver];
  for (FakeEntry& e : tab) {
    if (e.id != f) continue;
    // A re-admitted ID after a blocklist expiry resurfaces in the table
    // (probation), but is not a first-time reception.
    e.evicted = false;
    return false;
  }
  FakeEntry e;
  e.id = f;
  e.first_seen = static_cast<double>(t);
  tab.push_back(e);
  return true;
}

template <typename Time>
void FaultState<Time>::note_isolation(net::NodeId receiver,
                                      net::NodeId announced, Time t) {
  if (!adversary_) return;
  if (std::binary_search(fake_ids_.begin(), fake_ids_.end(), announced)) {
    std::vector<FakeEntry>& tab = fake_heard_[receiver];
    FakeEntry* entry = nullptr;
    for (FakeEntry& e : tab) {
      if (e.id == announced) {
        entry = &e;
        break;
      }
    }
    if (entry == nullptr) {
      // Rejected before any decode was admitted (the trust wrapper sees
      // every announcement attempt): no table entry ever existed.
      FakeEntry e;
      e.id = announced;
      e.first_seen = static_cast<double>(t);
      tab.push_back(e);
      entry = &tab.back();
    }
    entry->evicted = true;
    if (!entry->isolated) {
      entry->isolated = true;
      entry->isolated_at = static_cast<double>(t);
    }
    return;
  }
  std::vector<net::NodeId>& blocked = honest_blocked_[receiver];
  const auto it =
      std::lower_bound(blocked.begin(), blocked.end(), announced);
  if (it == blocked.end() || *it != announced) blocked.insert(it, announced);
}

template <typename Time>
void FaultState<Time>::note_reception(net::NodeId sender,
                                      net::NodeId receiver, std::size_t arc,
                                      Time t) {
  if (!churn_) return;
  // A link is a rediscovery candidate iff at least one endpoint crashes
  // and every crashed endpoint recovers; the clock starts at the latest
  // such recovery.
  bool relevant = false;
  Time threshold{};
  for (const net::NodeId end : {sender, receiver}) {
    const NodeChurn& c = schedule_[end];
    if (!c.crashes) continue;
    if (!c.recovers) return;  // link dead: endpoint never comes back
    relevant = true;
    threshold = std::max(threshold, c.recovery);
  }
  if (!relevant || t < threshold) return;
  double& cell = post_recovery_[arc];
  if (cell < 0.0) cell = static_cast<double>(t);
}

template <typename Time>
RobustnessReport FaultState<Time>::assess(std::span<const std::uint8_t> covered,
                                          Time end) const {
  RobustnessReport r;
  r.enabled = plan_->any();
  if (!r.enabled) return r;
  M2HEW_CHECK(covered.size() == network_->arc_count());
  const std::span<const net::Link> links = network_->links();
  const std::span<const std::size_t> link_arcs = network_->link_arcs();

  if (churn_) {
    for (net::NodeId u = 0; u < n_; ++u) {
      // A crash scheduled past the end of the run never happened.
      if (schedule_[u].crashes && schedule_[u].crash <= end) {
        ++r.crashed_nodes;
      }
      if (down_at(u, end)) ++r.down_at_end;
    }
  }

  // A jammer or Byzantine endpoint makes an arc undiscoverable by
  // construction (neither role announces its real ID or listens), so
  // those arcs are excluded from the recall denominators; non-responder
  // arcs stay in — their victims' misses are the attack's recall cost.
  const auto blind = [this](net::NodeId u) {
    if (!adversary_) return false;
    return role_[u] == static_cast<std::uint8_t>(AdversaryRole::kJammer) ||
           role_[u] == static_cast<std::uint8_t>(AdversaryRole::kByzantine);
  };
  r.adversary = adversary_;
  r.adversary_nodes = adversary_count_;

  // The link loops walk links() in order: the order of the floating-point
  // rediscovery sum is part of the bit-identity contract.
  double rediscovery_sum = 0.0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const net::Link link = links[i];
    const bool is_covered = covered[link_arcs[i]] == 1;
    if (is_covered) ++r.real_entries;
    if (down_at(link.from, end) || down_at(link.to, end)) continue;
    if (blind(link.from) || blind(link.to)) continue;
    ++r.surviving_links;
    if (is_covered) ++r.covered_surviving_links;
    if (!churn_) continue;
    bool relevant = false;
    Time threshold{};
    for (const net::NodeId node : {link.from, link.to}) {
      const NodeChurn& c = schedule_[node];
      // Only crashes that happened during the run count; an endpoint that
      // crashed and never recovered is still down (link not surviving).
      if (!c.crashes || c.crash > end) continue;
      relevant = true;
      threshold = std::max(threshold, c.recovery);
    }
    if (!relevant) continue;
    ++r.recovered_links;
    const double t = post_recovery_[link_arcs[i]];
    if (t >= 0.0) {
      ++r.rediscovered_links;
      const double took = t - static_cast<double>(threshold);
      rediscovery_sum += took;
      r.max_rediscovery = std::max(r.max_rediscovery, took);
    }
  }
  if (r.rediscovered_links > 0) {
    r.mean_rediscovery =
        rediscovery_sum / static_cast<double>(r.rediscovered_links);
  }

  // Ghost entries: stale table knowledge at the end of the run. An entry
  // is a ghost when its subject crashed and is still down, or when every
  // common channel it records is blocked by an active spectrum fault at
  // either endpoint (the link's effective span vanished). A table entry at
  // u exists exactly for each covered link (v, u) and records the span, so
  // covered links stand in for the tables themselves.
  if (churn_ || has_spectrum()) {
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (covered[link_arcs[i]] != 1) continue;
      const net::NodeId v = links[i].from;
      const net::NodeId u = links[i].to;
      bool ghost = down_at(v, end);
      if (!ghost && has_spectrum()) {
        const net::ChannelSet& common = network_->arc_span(link_arcs[i]);
        if (!common.empty()) {
          ghost = true;
          for (const net::ChannelId c : common.to_vector()) {
            if (!spectrum_blocked(end, u, c) &&
                !spectrum_blocked(end, v, c)) {
              ghost = false;
              break;
            }
          }
        }
      }
      if (ghost) ++r.ghost_entries;
    }
  }

  // Fake-entry accounting: every admitted, un-evicted (listener, fake ID)
  // pair is a polluted table entry — unless the announced ID aliases a
  // real node whose arc to the listener exists and was covered, in which
  // case the table already holds that entry as real knowledge and it must
  // not be counted twice. Fake entries are also ghost inflation.
  if (adversary_) {
    double isolation_sum = 0.0;
    for (net::NodeId u = 0; u < n_; ++u) {
      for (const FakeEntry& e : fake_heard_[u]) {
        if (!e.evicted) {
          bool aliased = false;
          if (e.id < n_) {
            const std::size_t arc = network_->in_arc(e.id, u);
            aliased = arc != net::Network::kNoArc && covered[arc] == 1;
          }
          if (!aliased) ++r.fake_entries;
        }
        if (e.isolated) {
          ++r.isolated_fakes;
          const double took = e.isolated_at - e.first_seen;
          isolation_sum += took;
          r.max_isolation = std::max(r.max_isolation, took);
        }
      }
      r.honest_isolated += honest_blocked_[u].size();
    }
    if (r.isolated_fakes > 0) {
      r.mean_isolation =
          isolation_sum / static_cast<double>(r.isolated_fakes);
    }
    r.ghost_entries += r.fake_entries;
  }
  return r;
}

template class FaultState<std::uint64_t>;
template class FaultState<double>;

}  // namespace m2hew::sim
