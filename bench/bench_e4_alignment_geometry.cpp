// E4 — Lemmas 4 & 7 (the frame geometry of Figures 1–4): with drift bound
// δ ≤ 1/7, (i) a frame of one node overlaps at most 3 frames of another,
// and (ii) for any instant T, among the first two full frames of two nodes
// after T some pair is aligned. Past the lemmas' thresholds (1/3 resp.
// 1/7) violations appear.
//
// Reproduced series: violation rates of both lemmas as δ sweeps across
// 0 … 0.45, sampled over random piecewise-drift clocks and offsets.
#include "bench_common.hpp"

#include <algorithm>
#include <memory>

#include "runner/report.hpp"
#include "sim/clock.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr double kL = 3.0;

struct NodeTimeline {
  std::unique_ptr<sim::Clock> clock;
  double start = 0.0;

  [[nodiscard]] double frame_boundary(int k) const {
    const double local0 = clock->local_at_real(start);
    return clock->real_at_local(local0 + kL * k);
  }
  [[nodiscard]] double slot_boundary(int k, int j) const {
    const double local0 = clock->local_at_real(start);
    return clock->real_at_local(local0 + kL * k + kL / 3.0 * j);
  }
};

[[nodiscard]] NodeTimeline make_timeline(double delta, std::uint64_t seed,
                                         util::Rng& rng) {
  NodeTimeline t;
  t.clock = std::make_unique<sim::PiecewiseDriftClock>(
      sim::PiecewiseDriftClock::Config{.max_drift = delta,
                                       .min_segment = 2.0,
                                       .max_segment = 9.0,
                                       .offset = rng.uniform_double(-5.0,
                                                                    5.0)},
      seed);
  t.start = rng.uniform_double(0.0, kL);
  return t;
}

[[nodiscard]] int overlaps_of_frame(const NodeTimeline& self,
                                    const NodeTimeline& other, int k) {
  const double lo = self.frame_boundary(k);
  const double hi = self.frame_boundary(k + 1);
  int overlaps = 0;
  for (int m = 0; m < 100000; ++m) {
    const double g_lo = other.frame_boundary(m);
    if (g_lo >= hi) break;
    const double g_hi = other.frame_boundary(m + 1);
    if (g_lo < hi && g_hi > lo) ++overlaps;
  }
  return overlaps;
}

[[nodiscard]] bool aligned(const NodeTimeline& f, int kf,
                           const NodeTimeline& g, int kg) {
  const double g_lo = g.frame_boundary(kg);
  const double g_hi = g.frame_boundary(kg + 1);
  for (int j = 0; j < 3; ++j) {
    if (f.slot_boundary(kf, j) >= g_lo && f.slot_boundary(kf, j + 1) <= g_hi) {
      return true;
    }
  }
  return false;
}

[[nodiscard]] int first_full_frame_after(const NodeTimeline& t, double when) {
  for (int k = 0; k < 1000000; ++k) {
    if (t.frame_boundary(k) >= when) return k;
  }
  return 0;
}

struct ViolationRates {
  double lemma4 = 0.0;  // fraction of frames overlapping > 3 frames
  double lemma7 = 0.0;  // fraction of instants with no aligned pair in 2x2
};

[[nodiscard]] ViolationRates measure(double delta, int samples) {
  util::Rng rng(991);
  int lemma4_violations = 0;
  int lemma7_violations = 0;
  int lemma4_checks = 0;
  int lemma7_checks = 0;
  for (int s = 0; s < samples; ++s) {
    const NodeTimeline u =
        make_timeline(delta, 2 * static_cast<std::uint64_t>(s) + 1, rng);
    const NodeTimeline v =
        make_timeline(delta, 2 * static_cast<std::uint64_t>(s) + 2, rng);
    for (int k = 0; k < 40; ++k) {
      ++lemma4_checks;
      if (overlaps_of_frame(u, v, k) > 3) ++lemma4_violations;
    }
    for (int i = 0; i < 40; ++i) {
      const double t =
          std::max(u.start, v.start) + rng.uniform_double(0.0, 100.0);
      const int fv = first_full_frame_after(v, t);
      const int gu = first_full_frame_after(u, t);
      bool ok = false;
      for (int a = 0; a < 2 && !ok; ++a) {
        for (int b = 0; b < 2 && !ok; ++b) {
          ok = aligned(v, fv + a, u, gu + b);
        }
      }
      ++lemma7_checks;
      if (!ok) ++lemma7_violations;
    }
  }
  return {static_cast<double>(lemma4_violations) / lemma4_checks,
          static_cast<double>(lemma7_violations) / lemma7_checks};
}

void reproduce_table() {
  runner::print_banner(
      "E4 / Lemmas 4 & 7",
      "delta <= 1/7: frame overlap <= 3 and an aligned pair exists among "
      "the first 2x2 frames after any instant",
      "random piecewise-drift clocks, random offsets, L=3, 3 slots/frame");

  auto csv_file = runner::open_results_csv("e4_alignment_geometry");
  util::CsvWriter csv(csv_file);
  csv.header({"delta", "lemma4_violation_rate", "lemma7_violation_rate"});

  util::Table table({"delta", "lemma4 violations", "lemma7 violations",
                     "within assumption?"});
  bool lemmas_hold_within_assumption = true;
  for (const double delta : {0.0, 0.05, 0.10, 1.0 / 7.0, 0.20, 1.0 / 3.0,
                             0.45}) {
    const auto rates = measure(delta, 50);
    const bool within = delta <= 1.0 / 7.0 + 1e-12;
    if (within && (rates.lemma4 > 0.0 || rates.lemma7 > 0.0)) {
      lemmas_hold_within_assumption = false;
    }
    table.row()
        .cell(delta, 4)
        .cell(rates.lemma4, 4)
        .cell(rates.lemma7, 4)
        .cell(within ? "yes" : "no");
    csv.field(delta).field(rates.lemma4).field(rates.lemma7);
    csv.end_row();
  }
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(lemmas_hold_within_assumption,
                        "zero violations of Lemma 4 and Lemma 7 for all "
                        "delta <= 1/7");
  std::printf(
      "expected shape: violation columns are exactly 0 up to 1/7; Lemma 7\n"
      "violations appear between 1/7 and 1/3; Lemma 4 violations appear\n"
      "beyond 1/3 (cf. the contradiction thresholds in the proofs).\n");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e4_alignment_geometry", reproduce_table,
      {{"experiment", "E4"},
       {"clocks", "piecewise_drift"},
       {"frame_length", "3"},
       {"slots_per_frame", "3"}});
}
