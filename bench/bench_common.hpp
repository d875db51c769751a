// Shared helpers for the experiment bench binaries (DESIGN.md §4).
//
// Each bench binary is its reproduction section: it prints the
// paper-vs-measured table for the experiment, writes results/<exp>.csv and
// results/BENCH_<id>.json, and closes with a trial-throughput line. The
// only flag is --threads=N; simulator speed is measured by perfbench/.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "net/network.hpp"
#include "runner/report.hpp"
#include "runner/trials.hpp"

namespace m2hew::benchx {

/// A scenario parameter recorded into the bench's JSON artifact. Values
/// are kept as strings; numeric parameters are formatted by the caller.
using BenchParam = std::pair<const char*, std::string>;

/// Parses argv: --threads=N (N a non-negative integer) is the only flag.
/// It installs N as the process-wide default for every trial config in
/// the binary; 0 = all cores (also the default when the flag is absent),
/// 1 = serial. Aggregate results are identical at any value, only
/// wall-clock changes. Returns false on any other argument.
[[nodiscard]] inline bool parse_bench_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) != 0) return false;
    const char* value = argv[i] + 10;
    char* end = nullptr;
    const unsigned long long threads = std::strtoull(value, &end, 10);
    if (*value < '0' || *value > '9' || *end != '\0') return false;
    runner::set_default_trial_threads(static_cast<std::size_t>(threads));
  }
  return true;
}

/// One-line throughput report for a SyncTrialStats/AsyncTrialStats, so a
/// bench can show what a specific run sustained.
template <typename Stats>
void report_throughput(const char* label, const Stats& stats) {
  std::printf("[throughput] %-24s %4zu trials in %7.3f s  "
              "(%8.1f trials/s, %zu threads)\n",
              label, stats.trials, stats.elapsed_seconds,
              stats.trials_per_second(), stats.threads_used);
}

/// Cumulative trial-layer throughput for the whole binary; call at the end
/// of main so every bench report closes with its own throughput line.
inline void print_trial_throughput() {
  const runner::TrialThroughput totals = runner::trial_throughput_totals();
  if (totals.trials == 0) return;
  std::printf("\n[throughput] trial layer: %zu trials across %zu runs in "
              "%.3f s (%.1f trials/s, default %zu threads)\n",
              totals.trials, totals.runs, totals.busy_seconds,
              totals.trials_per_second(),
              runner::default_trial_threads());
}

/// Extracts the paper's bound parameters from a built network.
[[nodiscard]] inline core::BoundParams bound_params(
    const net::Network& network, std::size_t delta_est, double epsilon) {
  core::BoundParams p;
  p.n = network.node_count();
  p.s = network.max_channel_set_size();
  p.delta = std::max<std::size_t>(1, network.max_channel_degree());
  p.delta_est = delta_est;
  p.rho = network.min_span_ratio();
  p.epsilon = epsilon;
  return p;
}

/// Ratio formatter for "measured / bound" columns.
[[nodiscard]] inline double ratio(double measured, double bound) {
  return bound == 0.0 ? 0.0 : measured / bound;
}

/// Parameters registered while reproduce() runs — values that only exist
/// after the simulations (energy per discovery, measured quantiles, ...).
/// bench_main's params list is fixed at the call site before anything has
/// run; this registry is the escape hatch for computed results, appended
/// after the static params in the JSON artifact.
inline std::vector<runner::BenchJsonParam>& computed_bench_params() {
  static std::vector<runner::BenchJsonParam> params;
  return params;
}

inline void add_bench_param(std::string name, std::string value) {
  computed_bench_params().emplace_back(std::move(name), std::move(value));
}

/// Writes results/BENCH_<id>.json: the machine-readable artifact for one
/// bench run — scenario parameters (static ones first, then any
/// registered via add_bench_param), per-run completion statistics (from
/// runner::trial_run_log(), in call order), and the binary's cumulative
/// trials/sec. The document itself comes from the shared serializer in
/// runner/report.hpp — the same one the sweep daemon's cached artifacts
/// use — so CI's bench-smoke validator covers both producers.
inline void write_bench_json(const char* bench_id,
                             std::initializer_list<BenchParam> params) {
  std::filesystem::create_directories(runner::results_dir());
  const std::string path =
      runner::results_dir() + "/BENCH_" + bench_id + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot open %s\n", path.c_str());
    return;
  }
  std::vector<runner::BenchJsonParam> doc_params;
  doc_params.reserve(params.size() + computed_bench_params().size());
  for (const BenchParam& p : params) doc_params.emplace_back(p);
  for (const runner::BenchJsonParam& p : computed_bench_params()) {
    doc_params.push_back(p);
  }
  const std::vector<runner::TrialRunRecord> runs = runner::trial_run_log();
  runner::write_bench_json_doc(out, bench_id, doc_params, runs,
                               runner::trial_throughput_totals(),
                               runner::default_trial_threads());
  std::printf("[artifact] wrote %s\n", path.c_str());
}

/// Shared main for every bench binary: parses --threads, runs the
/// reproduction section, then prints the throughput line and emits
/// results/BENCH_<id>.json. Any other argument prints a one-line usage
/// message and exits 2 before a trial runs. `params` are the scenario
/// parameters embedded in the artifact.
inline int bench_main(int argc, char** argv, const char* bench_id,
                      void (*reproduce)(),
                      std::initializer_list<BenchParam> params = {}) {
  if (!parse_bench_args(argc, argv)) {
    std::fprintf(stderr, "usage: %s [--threads=N]\n", argv[0]);
    return 2;
  }
  reproduce();
  print_trial_throughput();
  write_bench_json(bench_id, params);
  return 0;
}

}  // namespace m2hew::benchx
