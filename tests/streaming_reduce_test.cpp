// The sharded path's wire format and fold (runner/streaming.hpp): hexfloat
// codec exactness, the pinned R line, protocol strictness, placement by
// trial index, and reduce_sync_trials against run_sync_trials.
#include "runner/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "core/policy_spec.hpp"
#include "runner/scenario.hpp"
#include "sim/soa_kernel.hpp"
#include "util/rng.hpp"

namespace m2hew::runner {
namespace {

[[nodiscard]] TrialOutcome sample_outcome(std::size_t trial) {
  TrialOutcome outcome;
  outcome.complete = trial % 3 != 0;
  // Deliberately awkward doubles: non-dyadic fractions and huge values
  // that would lose bits through a %g round-trip.
  outcome.completion = 0.1 + static_cast<double>(trial) * 1e15;
  sim::RobustnessReport& r = outcome.robustness;
  r.enabled = trial % 2 == 0;
  r.surviving_links = 10 + trial;
  r.covered_surviving_links = 3 + trial;
  r.ghost_entries = trial;
  r.recovered_links = 2;
  r.rediscovered_links = trial % 2;
  r.mean_rediscovery = 1.0 / 3.0 + static_cast<double>(trial);
  r.adversary = trial % 2 == 0;
  r.real_entries = 20 + trial;
  r.fake_entries = trial / 2;
  r.isolated_fakes = trial / 3;
  r.honest_isolated = trial % 4;
  r.mean_isolation = 2.0 / 7.0 + static_cast<double>(trial);
  return outcome;
}

[[nodiscard]] bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every field the wire carries, bit-for-bit, not approximately: the wire
// format exists to make the daemon's fold read exactly the doubles the
// worker computed.
void expect_identical(const TrialOutcome& a, const TrialOutcome& b) {
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_TRUE(same_bits(a.completion, b.completion));
  const sim::RobustnessReport& ra = a.robustness;
  const sim::RobustnessReport& rb = b.robustness;
  EXPECT_EQ(ra.enabled, rb.enabled);
  EXPECT_EQ(ra.surviving_links, rb.surviving_links);
  EXPECT_EQ(ra.covered_surviving_links, rb.covered_surviving_links);
  EXPECT_EQ(ra.ghost_entries, rb.ghost_entries);
  EXPECT_EQ(ra.recovered_links, rb.recovered_links);
  EXPECT_EQ(ra.rediscovered_links, rb.rediscovered_links);
  EXPECT_TRUE(same_bits(ra.mean_rediscovery, rb.mean_rediscovery));
  EXPECT_EQ(ra.adversary, rb.adversary);
  EXPECT_EQ(ra.real_entries, rb.real_entries);
  EXPECT_EQ(ra.fake_entries, rb.fake_entries);
  EXPECT_EQ(ra.isolated_fakes, rb.isolated_fakes);
  EXPECT_EQ(ra.honest_isolated, rb.honest_isolated);
  EXPECT_TRUE(same_bits(ra.mean_isolation, rb.mean_isolation));
}

TEST(WireFormat, RecordRoundTripsBitExactly) {
  for (std::size_t trial = 0; trial < 16; ++trial) {
    const TrialOutcome outcome = sample_outcome(trial);
    const auto decoded = decode_outcome(encode_outcome(trial, outcome));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->first, trial);
    expect_identical(outcome, decoded->second);
  }
}

// The exact line of one outcome with faults and adversaries on, as the
// format has always written it. Round-trips alone cannot see a change of
// field order or formatting, which would break workers and parents built
// from different revisions.
TEST(WireFormat, RecordLineIsPinned) {
  EXPECT_EQ(encode_outcome(4, sample_outcome(4)),
            "R 4 1 0x1.c6bf52634p+51 1 14 7 4 2 0 0x1.1555555555555p+2 "
            "1 24 2 1 0 0x1.1249249249249p+2");
}

TEST(WireFormat, ExtremeDoublesRoundTrip) {
  TrialOutcome outcome = sample_outcome(1);
  for (const double value :
       {0.0, -0.0, 5e-324 /* min subnormal */, 1.7976931348623157e308,
        std::nextafter(1.0, 2.0)}) {
    outcome.completion = value;
    outcome.robustness.mean_rediscovery = value;
    const auto decoded = decode_outcome(encode_outcome(1, outcome));
    ASSERT_TRUE(decoded.has_value());
    expect_identical(outcome, decoded->second);
  }
}

TEST(WireFormat, RejectsMalformedLines) {
  const std::string good = encode_outcome(4, sample_outcome(4));
  EXPECT_TRUE(decode_outcome(good).has_value());
  EXPECT_FALSE(decode_outcome("").has_value());
  EXPECT_FALSE(decode_outcome("R").has_value());
  EXPECT_FALSE(decode_outcome("X " + good.substr(2)).has_value());
  EXPECT_FALSE(decode_outcome(good + " junk").has_value());
  // A missing field is malformed. (Merely truncating characters off a
  // trailing hexfloat is NOT — it parses as a different valid double —
  // which is exactly why drain_workers drops partial lines at EOF before
  // they ever reach the decoder.)
  EXPECT_FALSE(
      decode_outcome(good.substr(0, good.find_last_of(' '))).has_value());
  // Booleans must be 0/1, not arbitrary ints — all three of them
  // (complete, fault_enabled, adversary; whitespace-split token indices
  // 2, 4 and 11 of the R line).
  for (const std::size_t token : {2u, 4u, 11u}) {
    std::vector<std::string> tokens;
    std::size_t start = 0;
    while (start < good.size()) {
      const std::size_t space = good.find(' ', start);
      tokens.push_back(good.substr(start, space - start));
      if (space == std::string::npos) break;
      start = space + 1;
    }
    ASSERT_EQ(tokens.size(), 17u);
    tokens[token].assign(1, '2');
    std::string corrupted;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) corrupted += ' ';
      corrupted += tokens[i];
    }
    EXPECT_FALSE(decode_outcome(corrupted).has_value())
        << "token " << token << ": " << corrupted;
  }
}

TEST(WireFormat, EndMarkerRoundTripsAndRejects) {
  const auto decoded = decode_end_marker(encode_end_marker(3, 17));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, 3u);
  EXPECT_EQ(decoded->second, 17u);
  EXPECT_FALSE(decode_end_marker("E 3").has_value());
  EXPECT_FALSE(decode_end_marker("E 3 17 junk").has_value());
  EXPECT_FALSE(decode_end_marker("R 3 17").has_value());
}

void expect_same_samples(const util::Samples& a, const util::Samples& b) {
  ASSERT_EQ(a.count(), b.count());
  for (std::size_t i = 0; i < a.count(); ++i) {
    EXPECT_TRUE(same_bits(a.values()[i], b.values()[i])) << "sample " << i;
  }
}

void expect_same_aggregate(const SyncTrialStats& a, const SyncTrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.completed, b.completed);
  expect_same_samples(a.completion_slots, b.completion_slots);
  const RobustnessStats& ra = a.robustness;
  const RobustnessStats& rb = b.robustness;
  EXPECT_EQ(ra.fault_trials, rb.fault_trials);
  expect_same_samples(ra.surviving_recall, rb.surviving_recall);
  expect_same_samples(ra.ghost_entries, rb.ghost_entries);
  expect_same_samples(ra.rediscovery_times, rb.rediscovery_times);
  EXPECT_EQ(ra.recovered_links, rb.recovered_links);
  EXPECT_EQ(ra.rediscovered_links, rb.rediscovered_links);
  EXPECT_EQ(ra.adversary_trials, rb.adversary_trials);
  expect_same_samples(ra.precision_under_attack, rb.precision_under_attack);
  expect_same_samples(ra.isolation_times, rb.isolation_times);
  EXPECT_EQ(ra.fake_entries, rb.fake_entries);
  EXPECT_EQ(ra.isolated_fakes, rb.isolated_fakes);
  EXPECT_EQ(ra.honest_isolated, rb.honest_isolated);
}

[[nodiscard]] std::vector<std::optional<TrialOutcome>> place_all(
    const std::vector<std::string>& lines, std::size_t trials) {
  std::vector<std::optional<TrialOutcome>> slots(trials);
  for (const std::string& line : lines) {
    EXPECT_TRUE(place_outcome(line, slots));
  }
  return slots;
}

[[nodiscard]] std::vector<TrialOutcome> unwrap(
    const std::vector<std::optional<TrialOutcome>>& slots) {
  std::vector<TrialOutcome> outcomes;
  for (const auto& slot : slots) {
    EXPECT_TRUE(slot.has_value());
    if (slot.has_value()) outcomes.push_back(*slot);
  }
  return outcomes;
}

TEST(OutcomePlacement, ArrivalOrderDoesNotMatter) {
  constexpr std::size_t kTrials = 64;
  std::vector<TrialOutcome> in_order;
  std::vector<std::string> lines;
  for (std::size_t t = 0; t < kTrials; ++t) {
    in_order.push_back(sample_outcome(t));
    lines.push_back(encode_outcome(t, in_order.back()));
  }
  const SyncTrialStats expected = reduce_sync_trials(in_order, 0.0, 1);

  std::mt19937 shuffle_rng(7);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(lines.begin(), lines.end(), shuffle_rng);
    expect_same_aggregate(
        reduce_sync_trials(unwrap(place_all(lines, kTrials)), 0.0, 4),
        expected);
  }
}

TEST(OutcomePlacement, RejectsDuplicatesAndOutOfRange) {
  std::vector<std::optional<TrialOutcome>> slots(4);
  ASSERT_TRUE(place_outcome(encode_outcome(2, sample_outcome(2)), slots));
  ASSERT_TRUE(slots[2].has_value());
  // A duplicate index is consumed, and the first outcome stays.
  EXPECT_TRUE(place_outcome(encode_outcome(2, sample_outcome(5)), slots));
  expect_identical(*slots[2], sample_outcome(2));
  // So is an index past the run; no slot moves.
  EXPECT_TRUE(place_outcome(encode_outcome(9, sample_outcome(9)), slots));
  ASSERT_EQ(slots.size(), 4u);
  for (const std::size_t t : {0u, 1u, 3u}) EXPECT_FALSE(slots[t].has_value());
}

TEST(OutcomePlacement, OtherLinesAreNotConsumed) {
  std::vector<std::optional<TrialOutcome>> slots(4);
  const std::string good = encode_outcome(1, sample_outcome(1));
  EXPECT_FALSE(place_outcome(encode_end_marker(0, 2), slots));
  EXPECT_FALSE(place_outcome(good + " junk", slots));
  EXPECT_FALSE(place_outcome("", slots));
  for (const auto& slot : slots) EXPECT_FALSE(slot.has_value());
}

// The fold the sharded path ends in, fed the per-trial outcomes that
// run_sync_trials computes itself (trial t seeded derive(seed, t), one
// slotted_outcome each), gives its stats bit for bit, on both kernels.
void expect_reduce_matches_run_sync_trials(SyncKernel kernel_choice) {
  ScenarioConfig scenario;
  scenario.topology = TopologyKind::kLine;
  scenario.n = 8;
  scenario.universe = 6;
  scenario.set_size = 3;
  const net::Network network = build_scenario(scenario, 11);
  const core::SyncPolicySpec spec = core::SyncPolicySpec::algorithm3(4);

  SyncTrialConfig config;
  config.trials = 12;
  config.seed = 29;
  config.threads = 2;
  config.engine.max_slots = 4000;
  config.engine.faults.churn = {0.4, 50, 2000, 50, 500, true};
  config.engine.faults.burst_loss = {true, 0.05, 0.2, 0.02, 0.8};
  config.engine.faults.adversary.fraction = 0.2;
  config.engine.faults.adversary.attack = sim::AdversaryAttack::kMix;
  config.engine.faults.adversary.byzantine_tx = 0.6;
  const sim::SyncPolicyFactory factory = core::make_policy_factory(spec);
  const bool soa = kernel_choice == SyncKernel::kSoa;
  const SyncTrialStats batch = soa
                                   ? run_sync_trials(network, spec, config)
                                   : run_sync_trials(network, factory, config);
  ASSERT_GT(batch.completed, 0u);
  ASSERT_GT(batch.robustness.rediscovery_times.count(), 0u);
  ASSERT_TRUE(batch.robustness.adversarial());

  const util::SeedSequence seeds(config.seed);
  const sim::SoaPolicyTable table =
      core::build_soa_policy_table(network, spec);
  sim::SoaSlotKernel kernel(network);
  std::vector<TrialOutcome> outcomes;
  for (std::size_t t = 0; t < config.trials; ++t) {
    sim::SlotEngineConfig engine = config.engine;
    engine.seed = seeds.derive(t);
    outcomes.push_back(
        soa ? slotted_outcome(kernel.run(table, engine))
            : slotted_outcome(sim::run_slot_engine(network, factory, engine)));
  }
  expect_same_aggregate(reduce_sync_trials(outcomes, 0.0, 1), batch);
}

TEST(ReduceSyncTrials, MatchesRunSyncTrialsOnSlotEngine) {
  expect_reduce_matches_run_sync_trials(SyncKernel::kEngine);
}

TEST(ReduceSyncTrials, MatchesRunSyncTrialsOnSoaKernel) {
  expect_reduce_matches_run_sync_trials(SyncKernel::kSoa);
}

}  // namespace
}  // namespace m2hew::runner
