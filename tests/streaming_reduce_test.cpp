// Streaming reduction and worker wire format (runner/streaming.hpp):
// hexfloat codec exactness, protocol strictness, and order-independence of
// the reorder-buffer fold.
#include "runner/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

namespace m2hew::runner {
namespace {

[[nodiscard]] TrialOutcomeRecord sample_record(std::size_t trial) {
  TrialOutcomeRecord record;
  record.trial = trial;
  record.complete = trial % 3 != 0;
  // Deliberately awkward doubles: non-dyadic fractions and huge values
  // that would lose bits through a %g round-trip.
  record.completion_slot = 0.1 + static_cast<double>(trial) * 1e15;
  record.fault_enabled = trial % 2 == 0;
  record.surviving_links = 10 + trial;
  record.covered_surviving_links = 3 + trial;
  record.ghost_entries = trial;
  record.recovered_links = 2;
  record.rediscovered_links = trial % 2;
  record.mean_rediscovery = 1.0 / 3.0 + static_cast<double>(trial);
  record.adversary = trial % 2 == 0;
  record.real_entries = 20 + trial;
  record.fake_entries = trial / 2;
  record.isolated_fakes = trial / 3;
  record.honest_isolated = trial % 4;
  record.mean_isolation = 2.0 / 7.0 + static_cast<double>(trial);
  return record;
}

void expect_identical(const TrialOutcomeRecord& a,
                      const TrialOutcomeRecord& b) {
  EXPECT_EQ(a.trial, b.trial);
  EXPECT_EQ(a.complete, b.complete);
  // Bit-for-bit, not approximately: the wire format exists to make the
  // daemon's fold read exactly the doubles the worker computed.
  EXPECT_EQ(std::memcmp(&a.completion_slot, &b.completion_slot,
                        sizeof(double)),
            0);
  EXPECT_EQ(a.fault_enabled, b.fault_enabled);
  EXPECT_EQ(a.surviving_links, b.surviving_links);
  EXPECT_EQ(a.covered_surviving_links, b.covered_surviving_links);
  EXPECT_EQ(a.ghost_entries, b.ghost_entries);
  EXPECT_EQ(a.recovered_links, b.recovered_links);
  EXPECT_EQ(a.rediscovered_links, b.rediscovered_links);
  EXPECT_EQ(
      std::memcmp(&a.mean_rediscovery, &b.mean_rediscovery, sizeof(double)),
      0);
  EXPECT_EQ(a.adversary, b.adversary);
  EXPECT_EQ(a.real_entries, b.real_entries);
  EXPECT_EQ(a.fake_entries, b.fake_entries);
  EXPECT_EQ(a.isolated_fakes, b.isolated_fakes);
  EXPECT_EQ(a.honest_isolated, b.honest_isolated);
  EXPECT_EQ(
      std::memcmp(&a.mean_isolation, &b.mean_isolation, sizeof(double)), 0);
}

TEST(WireFormat, RecordRoundTripsBitExactly) {
  for (std::size_t trial = 0; trial < 16; ++trial) {
    const TrialOutcomeRecord record = sample_record(trial);
    const auto decoded = decode_outcome_record(encode_outcome_record(record));
    ASSERT_TRUE(decoded.has_value());
    expect_identical(record, *decoded);
  }
}

TEST(WireFormat, ExtremeDoublesRoundTrip) {
  TrialOutcomeRecord record = sample_record(1);
  for (const double value :
       {0.0, -0.0, 5e-324 /* min subnormal */, 1.7976931348623157e308,
        std::nextafter(1.0, 2.0)}) {
    record.completion_slot = value;
    record.mean_rediscovery = value;
    const auto decoded = decode_outcome_record(encode_outcome_record(record));
    ASSERT_TRUE(decoded.has_value());
    expect_identical(record, *decoded);
  }
}

TEST(WireFormat, RejectsMalformedLines) {
  const std::string good = encode_outcome_record(sample_record(4));
  EXPECT_TRUE(decode_outcome_record(good).has_value());
  EXPECT_FALSE(decode_outcome_record("").has_value());
  EXPECT_FALSE(decode_outcome_record("R").has_value());
  EXPECT_FALSE(decode_outcome_record("X " + good.substr(2)).has_value());
  EXPECT_FALSE(decode_outcome_record(good + " junk").has_value());
  // A missing field is malformed. (Merely truncating characters off a
  // trailing hexfloat is NOT — it parses as a different valid double —
  // which is exactly why drain_workers drops partial lines at EOF before
  // they ever reach the decoder.)
  EXPECT_FALSE(
      decode_outcome_record(good.substr(0, good.find_last_of(' ')))
          .has_value());
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
    EXPECT_FALSE(decode_outcome_record(corrupted).has_value())
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

[[nodiscard]] SyncTrialStats reduce_in_order(
    const std::vector<TrialOutcomeRecord>& records) {
  StreamingSyncReducer reducer(records.size());
  std::vector<TrialOutcomeRecord> sorted = records;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.trial < b.trial; });
  for (const auto& record : sorted) EXPECT_TRUE(reducer.offer(record));
  return reducer.finish(0.0, 1);
}

void expect_same_aggregate(const SyncTrialStats& a, const SyncTrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.completion_slots.count(), b.completion_slots.count());
  const auto sa = a.completion_slots.summarize();
  const auto sb = b.completion_slots.summarize();
  EXPECT_EQ(sa.mean, sb.mean);  // bit equality: same values, same order
  EXPECT_EQ(sa.p95, sb.p95);
  EXPECT_EQ(a.robustness.fault_trials, b.robustness.fault_trials);
  EXPECT_EQ(a.robustness.surviving_recall.summarize().mean,
            b.robustness.surviving_recall.summarize().mean);
  EXPECT_EQ(a.robustness.ghost_entries.summarize().mean,
            b.robustness.ghost_entries.summarize().mean);
  EXPECT_EQ(a.robustness.recovered_links, b.robustness.recovered_links);
  EXPECT_EQ(a.robustness.rediscovered_links,
            b.robustness.rediscovered_links);
}

TEST(StreamingSyncReducer, ArrivalOrderDoesNotMatter) {
  constexpr std::size_t kTrials = 64;
  std::vector<TrialOutcomeRecord> records;
  records.reserve(kTrials);
  for (std::size_t t = 0; t < kTrials; ++t) {
    records.push_back(sample_record(t));
  }
  const SyncTrialStats in_order = reduce_in_order(records);

  std::mt19937 shuffle_rng(7);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(records.begin(), records.end(), shuffle_rng);
    StreamingSyncReducer reducer(kTrials);
    for (const auto& record : records) {
      EXPECT_TRUE(reducer.offer(record));
    }
    EXPECT_TRUE(reducer.all_received());
    EXPECT_EQ(reducer.buffered(), 0u);
    expect_same_aggregate(reducer.finish(0.0, 4), in_order);
  }
}

TEST(StreamingSyncReducer, RejectsDuplicatesAndOutOfRange) {
  StreamingSyncReducer reducer(4);
  EXPECT_TRUE(reducer.offer(sample_record(2)));
  EXPECT_FALSE(reducer.offer(sample_record(2)));  // duplicate
  EXPECT_FALSE(reducer.offer(sample_record(9)));  // out of range
  EXPECT_EQ(reducer.received(), 1u);
}

TEST(StreamingSyncReducer, ReportsMissingTrials) {
  StreamingSyncReducer reducer(5);
  EXPECT_TRUE(reducer.offer(sample_record(1)));
  EXPECT_TRUE(reducer.offer(sample_record(4)));
  EXPECT_FALSE(reducer.all_received());
  const std::vector<std::size_t> missing = reducer.missing_trials();
  ASSERT_EQ(missing.size(), 3u);
  EXPECT_EQ(missing[0], 0u);
  EXPECT_EQ(missing[1], 2u);
  EXPECT_EQ(missing[2], 3u);
}

TEST(StreamingSyncReducer, ReorderWindowStaysSmallForRoundRobinShards) {
  // Workers w = t mod W interleave; worst-case buffering is about W
  // records, never O(trials).
  constexpr std::size_t kTrials = 1000;
  constexpr std::size_t kWorkers = 4;
  StreamingSyncReducer reducer(kTrials);
  std::size_t worst = 0;
  // Simulate round-robin arrival with worker w one step "ahead" of w+1.
  std::vector<std::size_t> cursor(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) cursor[w] = w;
  std::size_t remaining = kTrials;
  std::size_t turn = kWorkers - 1;  // start with the furthest-behind shard last
  while (remaining > 0) {
    turn = (turn + 1) % kWorkers;
    if (cursor[turn] >= kTrials) continue;
    EXPECT_TRUE(reducer.offer(sample_record(cursor[turn])));
    cursor[turn] += kWorkers;
    --remaining;
    worst = std::max(worst, reducer.buffered());
  }
  EXPECT_TRUE(reducer.all_received());
  EXPECT_LE(worst, kWorkers);
  (void)reducer.finish(0.0, kWorkers);
}

}  // namespace
}  // namespace m2hew::runner
