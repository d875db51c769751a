// m2hew_experiment — run a parameter sweep described by an INI file.
//
//   $ m2hew_experiment sweep.ini
//
// The file format is the sweep daemon's (docs/OPERATIONS.md): every key is
// a row of the knob table (runner/knobs.hpp), and parsing is strict — an
// unknown section or key, a malformed or out-of-range value, or a rule
// between keys that does not hold exits 2 with a one-line message naming
// the key, before any trial runs. Comments take whole lines (`#` or `;`).
// Example file:
//
//   [experiment]
//   name         = rho_sweep
//   algorithm    = alg3
//   delta-est    = 8
//   trials       = 30
//   threads      = 0
//   seed         = 1
//   max-slots    = 1000000
//   sweep-key    = overlap
//   sweep-values = 8 4 2 1
//   plot         = 1
//
//   [scenario]
//   topology  = line
//   channels  = chain
//   n         = 12
//   set-size  = 8
//
// `algorithm` is any slotted algorithm of the table (alg1, alg2, alg2x,
// alg3, baseline, deterministic, adaptive, mcdis, rendezvous,
// consistent-hop); the ones with a policy-as-data form run on the
// structure-of-arrays kernel unless trust or duty cycling wraps them
// (`kernel` is echoed but picks no loop; `kernel = soa` is still refused
// with trust, duty cycling or an algorithm without a policy table).
// `threads` is the trial fan-out (0 = all cores), `plot` an ascii plot of
// mean slots vs sweep value, and `sweep-key` any [scenario] key. Optional
// sections:
//
//   [faults]     crash-prob, crash-from, crash-until, down-min, down-max,
//                reset-on-recovery (node churn); burst-loss, burst-p-gb,
//                burst-p-bg, burst-loss-good (Gilbert-Elliott loss)
//   [mobility]   epochs, epoch-slots, speed-min, speed-max, pause-epochs,
//                duty-on, duty-period (random-waypoint link dynamics;
//                needs a unit-disk scenario with homogeneous, uniform or
//                variable channels)
//   [adversary]  fraction, attack (jam | byzantine | non-responder | mix),
//                byzantine-tx, victim-fraction, trust and the trust-* knobs
//
// Output: a table (one row per sweep value), optional plot, robustness
// metrics per sweep value when [faults] is present, encounter metrics per
// sweep value when [mobility] is present, and results/<name>.csv.
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "service/sweep_spec.hpp"
#include "sim/encounter.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/ini.hpp"
#include "util/table.hpp"

using namespace m2hew;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: m2hew_experiment <file.ini>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  util::IniParseError parse_error;
  const util::IniFile ini = util::IniFile::parse(in, &parse_error);
  if (!parse_error.ok()) {
    std::fprintf(stderr, "%s:%zu: %s\n  %s\n", argv[1], parse_error.line,
                 parse_error.message.c_str(), parse_error.text.c_str());
    return 2;
  }
  service::SweepSpec spec;
  std::string error;
  if (!service::parse_sweep_spec(ini, spec, &error)) {
    std::fprintf(stderr, "%s: %s\n", argv[1], error.c_str());
    return 2;
  }
  // The batch-only keys, already validated by the parse.
  const auto threads =
      static_cast<std::size_t>(ini.get_int("experiment", "threads", 0));
  const bool plot = ini.get_int("experiment", "plot", 0) != 0;
  const runner::MobilitySpec& mobility = spec.mobility;
  const std::string& sweep_key = spec.sweep_key;

  std::printf("experiment: %s (%s, %zu trials/point)\n", spec.name.c_str(),
              spec.algorithm.c_str(), spec.trials);
  std::printf("policy:     %s\n",
              runner::describe_policy(spec.algorithm, spec.delta_est).c_str());
  if (mobility.enabled) {
    std::printf("mobility:  %s\n", runner::describe_mobility(mobility).c_str());
  }

  auto csv_file = runner::open_results_csv(spec.name);
  util::CsvWriter csv(csv_file);
  if (mobility.enabled) {
    csv.header({"sweep_value", "success_rate", "mean_slots", "p50_slots",
                "p95_slots", "trials_per_sec", "contacts",
                "detected_contacts", "mean_detection_latency",
                "mean_missed_fraction"});
  } else {
    csv.header({"sweep_value", "success_rate", "mean_slots", "p50_slots",
                "p95_slots", "trials_per_sec"});
  }

  util::Table table({sweep_key.empty() ? "run" : sweep_key, "success",
                     "mean slots", "p50", "p95", "trials/s"});
  std::vector<double> means;
  double total_seconds = 0.0;
  std::size_t total_trials = 0;
  std::size_t threads_used = 1;
  for (const double value : spec.sweep_values) {
    const std::string label = service::format_sweep_value(value);
    runner::SweepPoint point;
    if (!runner::build_sweep_point(spec, value, point, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[1], error.c_str());
      return 2;
    }
    runner::SyncTrialConfig trial;
    trial.trials = spec.trials;
    trial.seed = spec.seed;
    trial.threads = threads;
    trial.engine = point.engine;
    std::optional<sim::EncounterIndex> encounter_index;
    if (point.provider != nullptr) {
      encounter_index.emplace(*point.provider, mobility.epoch_slots,
                              spec.max_slots);
      trial.encounters = &*encounter_index;
    }
    // Same policy construction as the sweep daemon.
    const auto stats = runner::run_spec_trials(point.network(), spec, trial,
                                               spec.scenario.universe);
    if (stats.robustness.enabled() || stats.encounters.enabled()) {
      std::printf("[%s = %s]\n", sweep_key.empty() ? "run" : sweep_key.c_str(),
                  label.c_str());
      if (stats.robustness.enabled()) {
        runner::print_robustness(stats.robustness);
      }
      if (stats.encounters.enabled()) {
        runner::print_encounters(stats.encounters);
      }
    }
    const auto summary = stats.completion_slots.summarize();
    means.push_back(summary.mean);
    total_seconds += stats.elapsed_seconds;
    total_trials += stats.trials;
    threads_used = stats.threads_used;
    table.row()
        .cell(label)
        .cell(stats.success_rate(), 2)
        .cell(summary.mean, 1)
        .cell(summary.p50, 1)
        .cell(summary.p95, 1)
        .cell(stats.trials_per_second(), 1);
    csv.field(value).field(stats.success_rate()).field(summary.mean);
    csv.field(summary.p50).field(summary.p95);
    csv.field(stats.trials_per_second());
    if (mobility.enabled) {
      const auto& enc = stats.encounters;
      csv.field(static_cast<unsigned long long>(enc.contacts));
      csv.field(static_cast<unsigned long long>(enc.detected));
      csv.field(enc.detection_latency.summarize().mean);
      csv.field(enc.missed_fraction.summarize().mean);
    }
    csv.end_row();
  }
  std::printf("\n%s", table.render().c_str());
  std::printf("\n%zu trials in %.3f s (%.1f trials/s, %zu threads)\n",
              total_trials, total_seconds,
              total_seconds > 0.0
                  ? static_cast<double>(total_trials) / total_seconds
                  : 0.0,
              threads_used);

  if (plot && spec.sweep_values.size() > 1) {
    util::PlotOptions plot_options;
    plot_options.x_label = sweep_key;
    plot_options.y_label = "mean slots";
    std::printf("\n%s",
                util::ascii_plot(spec.sweep_values, means, plot_options)
                    .c_str());
  }
  std::printf("\nwrote %s/%s.csv\n", runner::results_dir().c_str(),
              spec.name.c_str());
  return 0;
}
