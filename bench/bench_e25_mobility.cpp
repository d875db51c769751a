// E25 — encounter discovery under mobility (extension; time-varying
// topology core). Nodes follow seed-derived random-waypoint trajectories
// over the unit-disk square; the link set is recomputed at epoch
// boundaries (net/topology_provider.hpp) and discovery runs against the
// union network, with each epoch's live-arc bits gating receptions. The
// contact-tracing questions replace plain completion: how fast after a
// contact opens is the neighbor first heard (detection latency vs contact
// duration), what fraction of contacts is missed outright, and what each
// detected contact costs in radio energy — swept over node speed, epoch
// length and the duty cycle (core/duty_cycle.hpp).
//
// CI smoke caps trials per cell with M2HEW_E25_TRIALS (e.g. 4); without
// the cap each of the 24 cells runs 20 trials.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "core/duty_cycle.hpp"
#include "net/topology_provider.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "sim/encounter.hpp"
#include "sim/slot_engine.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr net::NodeId kN = 16;
constexpr net::ChannelId kUniverse = 8;
constexpr net::ChannelId kSetSize = 4;
constexpr std::size_t kDeltaEst = 8;
constexpr std::size_t kEpochs = 8;
constexpr std::uint64_t kRootSeed = 60;

[[nodiscard]] std::size_t trials_per_cell() {
  const char* env = std::getenv("M2HEW_E25_TRIALS");
  return env == nullptr ? 20 : std::strtoull(env, nullptr, 10);
}

[[nodiscard]] runner::ScenarioConfig deployment() {
  runner::ScenarioConfig config;
  config.topology = runner::TopologyKind::kUnitDisk;
  config.n = kN;
  config.ud_side = 1.0;
  config.ud_radius = 0.35;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.universe = kUniverse;
  config.set_size = kSetSize;
  return config;
}

/// Speeds are per-leg uniform in [speed/2, speed] units per epoch — the
/// classic RWP speed band, avoiding the near-zero-speed decay pathology.
[[nodiscard]] runner::MobilitySpec mobility_spec(double speed,
                                                 std::uint64_t epoch_slots,
                                                 std::uint64_t duty_on,
                                                 std::uint64_t duty_period) {
  runner::MobilitySpec mobility;
  mobility.enabled = true;
  mobility.epochs = kEpochs;
  mobility.epoch_slots = epoch_slots;
  mobility.speed_min = speed / 2.0;
  mobility.speed_max = speed;
  mobility.pause_epochs = 0;
  mobility.duty_on = duty_on;
  mobility.duty_period = duty_period;
  return mobility;
}

void reproduce_table() {
  const std::size_t trials = trials_per_cell();
  runner::print_banner(
      "E25 / encounter discovery under mobility (extension)",
      "random-waypoint link dynamics: detection latency tracks contact "
      "duration, missed contacts and energy per contact trade off against "
      "the duty cycle",
      "unit disk n=16 r=0.35, |U|=8 |A(u)|=4, alg3, 8 epochs, speeds x "
      "epoch lengths x duty cycles, " +
          std::to_string(trials) + " trials/cell");

  auto csv_file = runner::open_results_csv("e25_mobility");
  util::CsvWriter csv(csv_file);
  csv.header({"speed", "epoch_slots", "duty", "success_rate", "contacts",
              "detected", "detection_rate", "mean_latency",
              "mean_latency_fraction", "mean_missed_fraction",
              "energy_per_detected"});

  util::Table table({"speed", "eslots", "duty", "success", "contacts",
                     "det-rate", "latency", "lat/dur", "missed",
                     "energy/det"});

  const double speeds[] = {0.0, 0.02, 0.05, 0.1};
  const std::uint64_t epoch_lengths[] = {200, 500};
  const std::pair<std::uint64_t, std::uint64_t> duties[] = {
      {1, 1}, {1, 2}, {1, 4}};

  bool static_completes = false;
  bool all_cells_detect = true;
  bool duty_never_gains = true;
  // detection rate per (speed, epoch_slots) at full duty, for the
  // duty-monotonicity verdict.
  std::map<std::pair<double, std::uint64_t>, double> full_duty_rate;

  for (const double speed : speeds) {
    for (const std::uint64_t epoch_slots : epoch_lengths) {
      for (const auto& [duty_on, duty_period] : duties) {
        const auto mobility =
            mobility_spec(speed, epoch_slots, duty_on, duty_period);
        const auto provider =
            runner::build_mobility_provider(deployment(), mobility,
                                            kRootSeed);
        runner::SyncTrialConfig trial;
        trial.trials = trials;
        trial.seed = kRootSeed;
        trial.engine.max_slots = kEpochs * epoch_slots;
        trial.engine.topology = provider.get();
        trial.engine.epoch_length = epoch_slots;
        const sim::EncounterIndex index(*provider, epoch_slots,
                                        trial.engine.max_slots);
        trial.encounters = &index;
        const auto stats = runner::run_sync_trials(
            provider->union_network(),
            core::with_duty_cycle(core::make_algorithm3(kDeltaEst), duty_on,
                                  duty_period),
            trial);

        const runner::EncounterStats& enc = stats.encounters;
        const double latency = enc.detection_latency.count() > 0
                                   ? enc.detection_latency.summarize().mean
                                   : 0.0;
        const double fraction =
            enc.latency_over_duration.count() > 0
                ? enc.latency_over_duration.summarize().mean
                : 0.0;
        const double missed = enc.missed_fraction.count() > 0
                                  ? enc.missed_fraction.summarize().mean
                                  : 0.0;
        const double energy = enc.energy_per_detected.count() > 0
                                  ? enc.energy_per_detected.summarize().mean
                                  : 0.0;
        const std::string duty_label =
            std::to_string(duty_on) + "/" + std::to_string(duty_period);

        if (speed == 0.0 && duty_period == 1 && epoch_slots == 500) {
          static_completes = stats.completed == stats.trials &&
                             enc.detected == enc.contacts;
        }
        all_cells_detect &= enc.contacts > 0 && enc.detected > 0;
        if (duty_period == 1) {
          full_duty_rate[{speed, epoch_slots}] = enc.detection_rate();
        } else {
          duty_never_gains &= enc.detection_rate() <=
                              full_duty_rate[{speed, epoch_slots}] + 0.05;
        }

        table.row()
            .cell(speed, 2)
            .cell(epoch_slots)
            .cell(duty_label)
            .cell(stats.success_rate(), 2)
            .cell(enc.contacts)
            .cell(enc.detection_rate(), 3)
            .cell(latency, 1)
            .cell(fraction, 3)
            .cell(missed, 3)
            .cell(energy, 1);
        csv.field(speed).field(epoch_slots).field(duty_label);
        csv.field(stats.success_rate());
        csv.field(static_cast<unsigned long long>(enc.contacts));
        csv.field(static_cast<unsigned long long>(enc.detected));
        csv.field(enc.detection_rate()).field(latency).field(fraction);
        csv.field(missed).field(energy);
        csv.end_row();
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
  runner::print_verdict(static_completes,
                        "zero-speed full-duty cell completes every trial "
                        "and detects every contact (static degenerate "
                        "case of the epoch machinery)");
  runner::print_verdict(all_cells_detect,
                        "every cell observes and detects at least one "
                        "contact");
  runner::print_verdict(duty_never_gains,
                        "duty cycling never raises the detection rate "
                        "above the always-on cell (tolerance 0.05)");
}

}  // namespace

int main(int argc, char** argv) {
  return m2hew::benchx::bench_main(
      argc, argv, "e25_mobility", reproduce_table,
      {{"experiment", "E25"},
       {"topology", "unit_disk n=16 r=0.35, random waypoint"},
       {"universe", "8"},
       {"epochs", "8"},
       {"grid", "speed {0,0.02,0.05,0.1} x epoch_slots {200,500} x duty "
                "{1/1,1/2,1/4}"},
       {"algorithm", "alg3 (duty-cycled)"}});
}
