// E5 — Theorems 9 & 10: Algorithm 4 (asynchronous, drifting clocks,
// δ ≤ 1/7) discovers all neighbors w.p. ≥ 1−ε by the time every node has
// executed (48·max(2S,3Δ_est)/ρ)·ln(N²/ε) full frames after T_s, which is
// at most {M+1}·L/(1−δ) real time.
//
// Reproduced series:
//   (a) drift sweep δ ∈ [0, 1/7]: measured full frames and real time vs
//       the theorem bounds (bounds never violated; measured far below —
//       the bounds are worst-case).
//   (b) start-offset sweep: latency after T_s insensitive to offsets.
//   (c) ablation: slots-per-frame ∈ {2, 3, 4, 5} — the paper's 3-slot
//       frame is what Lemma 7 needs at δ = 1/7; more slots waste airtime.
#include <cmath>
#include <memory>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr double kEpsilon = 0.1;
constexpr std::size_t kDeltaEst = 8;
constexpr double kL = 3.0;

[[nodiscard]] net::Network workload(std::uint64_t seed) {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kUnitDisk;
  config.n = 12;
  config.ud_radius = 0.4;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = 8;
  config.set_size = 4;
  return runner::build_scenario(config, seed);
}

[[nodiscard]] auto drift_clock_builder(double delta) {
  return [delta](net::NodeId, std::uint64_t seed) {
    return std::make_unique<sim::PiecewiseDriftClock>(
        sim::PiecewiseDriftClock::Config{.max_drift = delta,
                                         .min_segment = 15.0,
                                         .max_segment = 60.0},
        seed);
  };
}

void reproduce_table() {
  runner::print_banner(
      "E5 / Theorems 9 & 10",
      "Alg 4 completes w.p. >= 1-eps within (48 max(2S,3D_est)/rho) "
      "ln(N^2/eps) full frames per node; real time <= (M+1) L/(1-delta)",
      "unit disk n=12, uniform-random channels |U|=8 |A|=4, L=3, eps=0.1");

  auto csv_file = runner::open_results_csv("e5_alg4_async");
  util::CsvWriter csv(csv_file);
  csv.header({"series", "x", "completed", "mean_frames", "p95_frames",
              "thm9_frame_bound", "mean_time_after_ts",
              "thm10_realtime_bound"});

  const net::Network network = workload(2);
  const auto params = benchx::bound_params(network, kDeltaEst, kEpsilon);
  const double frame_bound = core::theorem9_frame_bound(params);

  // (a) drift sweep.
  util::Table table_drift({"delta", "completed", "mean frames", "p95 frames",
                           "thm9 bound", "mean t-T_s", "thm10 bound"});
  bool frames_within_bound = true;
  for (const double delta : {0.0, 0.02, 0.07, 0.10, 1.0 / 7.0}) {
    runner::AsyncTrialConfig trial;
    trial.trials = 25;
    trial.seed = 500 + static_cast<std::uint64_t>(delta * 1000);
    trial.engine.frame_length = kL;
    trial.engine.max_real_time = 1e7;
    trial.engine.clock_builder = drift_clock_builder(delta);
    const auto stats = runner::run_async_trials(
        network, core::make_algorithm4(kDeltaEst), trial);
    const auto frames = stats.max_full_frames.summarize();
    const auto times = stats.completion_after_ts.summarize();
    const double rt_bound =
        core::theorem10_realtime_bound(params, kL, delta);
    frames_within_bound &= frames.p95 <= frame_bound;
    table_drift.row()
        .cell(delta, 4)
        .cell(stats.completed)
        .cell(frames.mean, 1)
        .cell(frames.p95, 1)
        .cell(frame_bound, 0)
        .cell(times.mean, 1)
        .cell(rt_bound, 0);
    csv.field("vs_delta").field(delta).field(stats.completed);
    csv.field(frames.mean).field(frames.p95).field(frame_bound);
    csv.field(times.mean).field(rt_bound);
    csv.end_row();
  }
  std::printf("(a) drift sweep (bounds are worst-case; measured must stay "
              "below):\n%s\n",
              table_drift.render().c_str());
  runner::print_verdict(frames_within_bound,
                        "p95 full frames within the Theorem 9 budget at "
                        "every delta <= 1/7");

  // (b) start-offset sweep at delta = 1/7.
  util::Table table_offset({"max offset (frames)", "completed",
                            "mean t-T_s"});
  double flat_min = 1e300;
  double flat_max = 0.0;
  for (const double offset_frames : {0.0, 2.0, 8.0, 32.0}) {
    runner::AsyncTrialConfig trial;
    trial.trials = 25;
    trial.seed = 900 + static_cast<std::uint64_t>(offset_frames);
    trial.engine.frame_length = kL;
    trial.engine.max_real_time = 1e7;
    trial.engine.clock_builder = drift_clock_builder(1.0 / 7.0);
    trial.per_trial = [offset_frames, &network](
                          std::size_t t, sim::AsyncEngineConfig& engine) {
      util::Rng rng(util::SeedSequence(31).derive(t));
      engine.starts.assign(network.node_count(), 0.0);
      for (net::NodeId u = 0; u < network.node_count(); ++u) {
        engine.starts[u] =
            rng.uniform_double(0.0, offset_frames * kL + 1e-9);
      }
    };
    const auto stats = runner::run_async_trials(
        network, core::make_algorithm4(kDeltaEst), trial);
    const auto times = stats.completion_after_ts.summarize();
    flat_min = std::min(flat_min, times.mean);
    flat_max = std::max(flat_max, times.mean);
    table_offset.row()
        .cell(offset_frames, 1)
        .cell(stats.completed)
        .cell(times.mean, 1);
    csv.field("vs_offset").field(offset_frames).field(stats.completed);
    csv.field(0.0).field(0.0).field(frame_bound);
    csv.field(times.mean).field(0.0);
    csv.end_row();
  }
  std::printf("(b) start offsets at delta=1/7 (latency after T_s stays "
              "flat):\n%s\n",
              table_offset.render().c_str());
  runner::print_verdict(flat_max <= 3.0 * flat_min,
                        "latency after T_s within 3x across offset spreads");

  // (c) slots-per-frame ablation at delta = 1/7.
  util::Table table_slots({"slots/frame", "completed", "mean t-T_s",
                           "mean frames"});
  for (const unsigned slots : {2u, 3u, 4u, 5u}) {
    runner::AsyncTrialConfig trial;
    trial.trials = 25;
    trial.seed = 1300 + slots;
    trial.engine.frame_length = kL;
    trial.engine.slots_per_frame = slots;
    trial.engine.max_real_time = 1e7;
    trial.engine.clock_builder = drift_clock_builder(1.0 / 7.0);
    const auto stats = runner::run_async_trials(
        network, core::make_algorithm4(kDeltaEst, slots), trial);
    const auto times = stats.completion_after_ts.summarize();
    table_slots.row()
        .cell(static_cast<std::size_t>(slots))
        .cell(stats.completed)
        .cell(times.mean, 1)
        .cell(stats.max_full_frames.summarize().mean, 1);
    csv.field("vs_slots").field(static_cast<std::size_t>(slots));
    csv.field(stats.completed);
    csv.field(stats.max_full_frames.summarize().mean).field(0.0);
    csv.field(frame_bound);
    csv.field(times.mean).field(0.0);
    csv.end_row();
  }
  std::printf("(c) slots-per-frame ablation (the paper's 3 balances "
              "alignment guarantees vs airtime):\n%s\n",
              table_slots.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e5_alg4_async", reproduce_table,
      {{"experiment", "E5"},
       {"topology", "unit_disk n=12"},
       {"universe", "8"},
       {"set_size", "4"},
       {"frame_length", "3"},
       {"epsilon", "0.1"}});
}
