// E23 — sweep-service throughput (docs/BENCHMARKS.md).
//
// The sweep daemon's value proposition is operational: shard a spec's
// trials across forked workers without changing a single output bit, and
// answer repeated submissions from the artifact cache without re-running
// anything. This bench puts numbers on both claims:
//
//   1. the in-process sharded executor (service::run_sweep) on the base
//      spec at workers 1, 2, 4, 8: one run record per sweep point and
//      worker count in BENCH_e23_sweepd_throughput.json, and a verdict
//      that every worker count's records equal the workers=1 records on
//      every field but elapsed_seconds and threads. Its trials/sec curve
//      is a scaling curve on a multi-core host; on a single core it
//      isolates the fork/pipe/streaming overhead a worker costs. And
//   2. end-to-end spool throughput through run_daemon(--once): J specs
//      submitted cold (every job executes) and then warm (every job is a
//      cache hit), reported as specs/sec for each worker count. The jobs
//      run in forked children, so they add no run records.
//
// Bit-identity of the sharded results at the trial level is pinned by
// tests/sweep_service_test.cpp. M2HEW_E23_MAX_WORKERS caps the worker
// counts (e.g. 2 for a smoke run); without it the full curve runs and
// regenerates results/BENCH_e23_sweepd_throughput.json.
#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "service/daemon.hpp"
#include "service/sweep_runner.hpp"
#include "service/sweep_spec.hpp"
#include "util/csv.hpp"
#include "util/ini.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

// The workload: a faulted two-point overlap sweep on the chain scenario —
// small enough that a cold batch finishes in seconds, faulted so the
// streaming reduction carries the full RobustnessStats record layout.
constexpr const char* kSpecText = R"(
[experiment]
name = e23_sweepd
algorithm = alg3
delta-est = 4
trials = 24
seed = 3
max-slots = 60000
sweep-key = overlap
sweep-values = 4 2

[scenario]
topology = line
channels = chain
n = 8
set-size = 4

[faults]
crash-prob = 0.4
crash-from = 50
crash-until = 2000
down-min = 50
down-max = 500
burst-loss = 0.8
burst-p-gb = 0.05
burst-p-bg = 0.2
)";

constexpr std::size_t kJobs = 4;  // specs per daemon batch

[[nodiscard]] std::size_t max_workers() {
  const char* env = std::getenv("M2HEW_E23_MAX_WORKERS");
  return env == nullptr ? 8 : std::strtoull(env, nullptr, 10);
}

/// The base spec with a distinct seed, so each job is a distinct cache
/// entry (ini parsing keeps the last assignment of a repeated key).
[[nodiscard]] service::SweepSpec make_spec(std::uint64_t seed) {
  const std::string text = std::string(kSpecText) + "[experiment]\nseed = " +
                           std::to_string(seed) + "\n";
  const util::IniFile ini = util::IniFile::parse_string(text);
  service::SweepSpec spec;
  std::string error;
  if (!service::parse_sweep_spec(ini, spec, &error)) {
    std::fprintf(stderr, "e23: bad embedded spec: %s\n", error.c_str());
    std::exit(1);
  }
  return spec;
}

[[nodiscard]] double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Submits `count` distinct-seed copies of the base spec into the spool
/// under the given job-name prefix.
void submit_jobs(const std::string& spool, const std::string& prefix,
                 std::size_t count) {
  for (std::size_t j = 0; j < count; ++j) {
    std::ofstream out(spool + "/incoming/" + prefix + std::to_string(j) +
                      ".ini");
    out << kSpecText << "[experiment]\nseed = " << (100 + j) << "\n";
  }
}

/// Reads status/<job>.json and reports whether it reached `state` with the
/// given cache disposition.
[[nodiscard]] bool job_finished(const std::string& spool,
                                const std::string& job, const char* cache) {
  std::ifstream in(spool + "/status/" + job + ".json");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str().find("\"state\": \"done\"") != std::string::npos &&
         text.str().find(std::string("\"cache\": \"") + cache + "\"") !=
             std::string::npos;
}

/// Every field of a run record except the host-dependent elapsed_seconds
/// and threads_used, for comparing sharded runs across worker counts.
[[nodiscard]] auto outcome_fields(const runner::TrialRunRecord& r) {
  return std::tie(r.async, r.trials, r.completed, r.mean_completion,
                  r.p90_completion, r.fault_trials, r.mean_surviving_recall,
                  r.mean_ghost_entries, r.mean_rediscovery, r.recovered_links,
                  r.rediscovered_links, r.adversary_trials,
                  r.mean_precision_under_attack, r.mean_isolation,
                  r.fake_entries, r.isolated_fakes, r.honest_isolated,
                  r.encounter_trials, r.contacts, r.detected_contacts,
                  r.mean_detection_latency, r.p90_detection_latency,
                  r.mean_latency_fraction, r.mean_missed_fraction,
                  r.mean_energy_per_detected);
}

/// Runs the base spec through service::run_sweep at every worker count up
/// to `cap`, adding one table row per count. Each sweep point appends one
/// run record to the process log; returns whether every count's records
/// equal the workers=1 records (field for field, timing aside).
[[nodiscard]] bool sharded_sweeps(std::size_t cap, util::Table& table) {
  const service::SweepSpec spec = make_spec(3);
  const std::size_t trials = spec.trials * spec.sweep_values.size();
  std::vector<runner::TrialRunRecord> reference;
  bool identical = true;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    if (workers > cap) continue;
    const std::size_t logged = runner::trial_run_log().size();
    service::SweepResult result;
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    if (!service::run_sweep(spec, workers, result, &error)) {
      std::fprintf(stderr, "e23: run_sweep failed: %s\n", error.c_str());
      return false;
    }
    const double elapsed = seconds_since(start);
    const std::vector<runner::TrialRunRecord> log = runner::trial_run_log();
    const std::vector<runner::TrialRunRecord> records(
        log.begin() + static_cast<std::ptrdiff_t>(logged), log.end());
    if (reference.empty()) reference = records;
    identical = identical && records.size() == reference.size() &&
                std::equal(records.begin(), records.end(), reference.begin(),
                           [](const auto& a, const auto& b) {
                             return outcome_fields(a) == outcome_fields(b);
                           });
    table.row().cell(workers).cell("sharded").cell(1.0 / elapsed, 1)
        .cell(static_cast<double>(trials) / elapsed, 0).cell(elapsed, 3);
  }
  return identical && !reference.empty();
}

void reproduce_table() {
  runner::print_banner(
      "E23 / sweep-daemon throughput",
      "sharded streaming execution costs only modest per-worker overhead "
      "(and scales with available cores), while resubmissions are answered "
      "from the artifact cache at near-zero cost",
      "chain scenario n=8, Alg 3 D_est=4, 24 trials x 2 sweep points per "
      "spec, churn+burst faults, 4 specs per daemon batch");

  auto csv_file = runner::open_results_csv("e23_sweepd_throughput");
  util::CsvWriter csv(csv_file);
  csv.header({"workers", "jobs", "trials_total", "cold_s", "cold_specs_per_s",
              "cold_trials_per_s", "warm_s", "warm_specs_per_s"});

  char tmpl[] = "/tmp/m2hew_e23_spool_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    runner::print_verdict(false, "mkdtemp failed; no daemon runs executed");
    return;
  }
  const std::string root = tmpl;

  const service::SweepSpec probe = make_spec(100);
  const std::size_t trials_total =
      kJobs * probe.trials * probe.sweep_values.size();
  const std::size_t cap = max_workers();

  util::Table table({"workers", "mode", "specs/sec", "trials/sec",
                     "elapsed s"});
  const bool sharded_identical = sharded_sweeps(cap, table);
  bool all_ok = true;

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    if (workers > cap) continue;
    // A fresh spool per worker count: the cold pass must actually be cold.
    const std::string spool = root + "/w" + std::to_string(workers);
    service::DaemonConfig config;
    config.spool_dir = spool;
    config.workers = workers;
    config.once = true;

    // First --once run on the empty spool creates the directory layout.
    if (service::run_daemon(config) != 0) {
      all_ok = false;
      continue;
    }
    submit_jobs(spool, "cold", kJobs);
    auto start = std::chrono::steady_clock::now();
    all_ok = all_ok && service::run_daemon(config) == 0;
    const double cold_s = seconds_since(start);

    submit_jobs(spool, "warm", kJobs);
    start = std::chrono::steady_clock::now();
    all_ok = all_ok && service::run_daemon(config) == 0;
    const double warm_s = seconds_since(start);

    for (std::size_t j = 0; j < kJobs; ++j) {
      all_ok =
          all_ok && job_finished(spool, "cold" + std::to_string(j), "miss");
      all_ok =
          all_ok && job_finished(spool, "warm" + std::to_string(j), "hit");
    }

    const double cold_specs = static_cast<double>(kJobs) / cold_s;
    const double cold_trials = static_cast<double>(trials_total) / cold_s;
    const double warm_specs = static_cast<double>(kJobs) / warm_s;
    csv.field(workers).field(kJobs).field(trials_total);
    csv.field(cold_s).field(cold_specs).field(cold_trials);
    csv.field(warm_s).field(warm_specs);
    csv.end_row();
    table.row().cell(workers).cell("cold").cell(cold_specs, 1)
        .cell(cold_trials, 0).cell(cold_s, 3);
    table.row().cell(workers).cell("warm").cell(warm_specs, 1)
        .cell(0.0, 0).cell(warm_s, 3);
  }

  std::printf("\n%s\n", table.render().c_str());
  runner::print_verdict(
      sharded_identical,
      "run_sweep's records at every worker count equal the workers=1 "
      "records on every field but elapsed_seconds and threads");
  runner::print_verdict(
      all_ok,
      "every cold job executed to done/miss and every warm resubmission "
      "was answered done/hit from the artifact cache");
  std::error_code ignored;
  std::filesystem::remove_all(root, ignored);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cap = std::to_string(max_workers());
  return m2hew::benchx::bench_main(
      argc, argv, "e23_sweepd_throughput", reproduce_table,
      {{"scenario", "line/chain n=8 set-size=4"},
       {"policy", "algorithm3 delta_est=4"},
       {"faults", "churn crash-prob=0.4 + burst-loss=0.8"},
       {"trials_per_spec", "24 x 2 sweep points"},
       {"jobs_per_batch", std::to_string(kJobs)},
       {"workers", "1,2,4,8 (capped at " + cap + ")"},
       {"cache", "cold (execute) vs warm (artifact-cache hit)"}});
}
