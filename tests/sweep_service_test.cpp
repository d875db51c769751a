// The tentpole acceptance contract of the sweep service: daemon-sharded
// streaming aggregation is bit-identical to the batch runner across worker
// counts 1/2/4 — including RobustnessStats under a fault plan — the sweep
// survives a SIGKILLed worker, and the spool daemon round-trips a spec
// end-to-end with a cache hit on resubmission. The worker-count and
// SIGKILL contracts are checked on both slotted loops: the policy table
// (alg3) and policy objects (baseline).
#include "service/sweep_runner.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/stat.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy_spec.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "service/artifact_cache.hpp"
#include "service/daemon.hpp"
#include "service/sweep_spec.hpp"
#include "util/ini.hpp"

namespace m2hew::service {
namespace {

constexpr const char* kFaultedSpec = R"(
[experiment]
name = service_test
algorithm = alg3
delta-est = 4
trials = 10
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

[[nodiscard]] SweepSpec parse_or_die(const std::string& text) {
  const util::IniFile ini = util::IniFile::parse_string(text);
  SweepSpec spec;
  std::string error;
  EXPECT_TRUE(parse_sweep_spec(ini, spec, &error)) << error;
  return spec;
}

/// Element-wise bit equality of retained samples: the streaming fold must
/// add the exact same doubles in the exact same order as the batch fold.
void expect_bit_identical_samples(const util::Samples& a,
                                  const util::Samples& b) {
  ASSERT_EQ(a.count(), b.count());
  const auto va = a.values();
  const auto vb = b.values();
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i], vb[i]) << "sample " << i;
  }
}

void expect_bit_identical_stats(const runner::SyncTrialStats& a,
                                const runner::SyncTrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.completed, b.completed);
  expect_bit_identical_samples(a.completion_slots, b.completion_slots);
  EXPECT_EQ(a.robustness.fault_trials, b.robustness.fault_trials);
  expect_bit_identical_samples(a.robustness.surviving_recall,
                               b.robustness.surviving_recall);
  expect_bit_identical_samples(a.robustness.ghost_entries,
                               b.robustness.ghost_entries);
  expect_bit_identical_samples(a.robustness.rediscovery_times,
                               b.robustness.rediscovery_times);
  EXPECT_EQ(a.robustness.recovered_links, b.robustness.recovered_links);
  EXPECT_EQ(a.robustness.rediscovered_links,
            b.robustness.rediscovered_links);
}

/// kFaultedSpec and the same spec on an algorithm without a policy table,
/// so run_sweep covers both slotted loops: SoaSlotKernel on the table and
/// run_slot_engine on policy objects.
[[nodiscard]] std::vector<SweepSpec> table_and_object_specs() {
  const SweepSpec table = parse_or_die(kFaultedSpec);
  SweepSpec objects = table;
  objects.algorithm = "baseline";
  EXPECT_TRUE(
      runner::spec_policy(table, table.scenario.universe).table.has_value());
  EXPECT_FALSE(runner::spec_policy(objects, objects.scenario.universe)
                   .table.has_value());
  return {table, objects};
}

/// The batch oracle: runner::run_sync_trials exactly as m2hew_experiment
/// invokes it, one call per sweep point.
[[nodiscard]] std::vector<runner::SyncTrialStats> batch_oracle(
    const SweepSpec& spec) {
  std::vector<runner::SyncTrialStats> points;
  SweepResult batch;
  std::string error;
  EXPECT_TRUE(run_sweep(spec, 1, batch, &error)) << error;
  for (const auto& point : batch.points) points.push_back(point.stats);
  return points;
}

TEST(SweepService, ShardedEqualsBatchAcrossWorkerCounts) {
  for (const SweepSpec& spec : table_and_object_specs()) {
    SCOPED_TRACE(spec.algorithm);
    const std::vector<runner::SyncTrialStats> oracle = batch_oracle(spec);
    ASSERT_EQ(oracle.size(), 2u);
    // The robustness block must actually be exercised, or this test proves
    // nothing about fault-plan streaming.
    EXPECT_GT(oracle[0].robustness.fault_trials, 0u);

    for (const std::size_t workers : {2u, 4u}) {
      SweepResult sharded;
      std::string error;
      ASSERT_TRUE(run_sweep(spec, workers, sharded, &error)) << error;
      ASSERT_EQ(sharded.points.size(), oracle.size());
      for (std::size_t p = 0; p < oracle.size(); ++p) {
        expect_bit_identical_stats(sharded.points[p].stats, oracle[p]);
      }
    }
  }
}

TEST(SweepService, ShardedEqualsBatchDirectRunnerCall) {
  // Same contract, stated against a literal run_sync_trials call rather
  // than through run_sweep's own batch path, and on the other slotted loop:
  // the sweep runs alg3 on its policy table, the reference on the spec's
  // policy objects.
  SweepSpec spec = parse_or_die(kFaultedSpec);
  spec.sweep_key.clear();
  spec.sweep_values = {0.0};

  const net::Network network =
      runner::build_scenario(spec.scenario, spec.seed);
  runner::SyncTrialConfig trial;
  trial.trials = spec.trials;
  trial.seed = spec.seed;
  trial.threads = 1;
  trial.engine.max_slots = spec.max_slots;
  trial.engine.faults = spec.faults;
  const auto direct = runner::run_sync_trials(
      network,
      core::make_policy_factory(
          core::SyncPolicySpec::algorithm3(spec.delta_est)),
      trial);

  SweepResult sharded;
  std::string error;
  ASSERT_TRUE(run_sweep(spec, 4, sharded, &error)) << error;
  ASSERT_EQ(sharded.points.size(), 1u);
  expect_bit_identical_stats(sharded.points[0].stats, direct);
}

TEST(SweepService, SoaKernelShardsIdentically) {
  SweepSpec spec = parse_or_die(kFaultedSpec);
  spec.kernel = runner::SyncKernel::kSoa;
  const std::vector<runner::SyncTrialStats> oracle = batch_oracle(spec);
  SweepResult sharded;
  std::string error;
  ASSERT_TRUE(run_sweep(spec, 3, sharded, &error)) << error;
  ASSERT_EQ(sharded.points.size(), oracle.size());
  for (std::size_t p = 0; p < oracle.size(); ++p) {
    expect_bit_identical_stats(sharded.points[p].stats, oracle[p]);
  }
  // The kernel knob is echoed, not obeyed: kernel=engine gives the same
  // points, batch and sharded.
  spec.kernel = runner::SyncKernel::kEngine;
  for (const std::size_t workers : {1u, 2u}) {
    SweepResult engine;
    ASSERT_TRUE(run_sweep(spec, workers, engine, &error)) << error;
    ASSERT_EQ(engine.points.size(), oracle.size());
    for (std::size_t p = 0; p < oracle.size(); ++p) {
      expect_bit_identical_stats(engine.points[p].stats, oracle[p]);
    }
  }
}

TEST(SweepService, SurvivesSigkilledWorker) {
  char tmpl[] = "/tmp/m2hew_kill_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);

  for (const SweepSpec& spec : table_and_object_specs()) {
    SCOPED_TRACE(spec.algorithm);
    const std::string marker =
        std::string(tmpl) + "/killed_" + spec.algorithm;
    const std::vector<runner::SyncTrialStats> oracle = batch_oracle(spec);

    // Shard 1 of 3 SIGKILLs itself halfway through its records (once; the
    // marker file arms the hook exactly one time).
    ::setenv("M2HEW_TEST_WORKER_KILL", ("1:" + marker).c_str(), 1);
    SweepResult sharded;
    std::string error;
    const bool ok = run_sweep(spec, 3, sharded, &error);
    ::unsetenv("M2HEW_TEST_WORKER_KILL");
    ASSERT_TRUE(ok) << error;

    // The hook genuinely fired...
    struct stat st {};
    EXPECT_EQ(::stat(marker.c_str(), &st), 0) << "kill hook never fired";
    // ...and the aggregate is still exactly the batch aggregate.
    ASSERT_EQ(sharded.points.size(), oracle.size());
    for (std::size_t p = 0; p < oracle.size(); ++p) {
      expect_bit_identical_stats(sharded.points[p].stats, oracle[p]);
    }
  }
}

TEST(SweepService, RejectsUnbuildableScenario) {
  SweepSpec spec = parse_or_die(kFaultedSpec);
  spec.scenario.topology = runner::TopologyKind::kRing;  // chain needs line
  SweepResult result;
  std::string error;
  EXPECT_FALSE(run_sweep(spec, 2, result, &error));
  EXPECT_NE(error, "");
}

TEST(SweepDaemon, OnceModeProcessesSubmissionThenHitsCache) {
  char tmpl[] = "/tmp/m2hew_daemon_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string spool = std::string(tmpl) + "/spool";

  DaemonConfig config;
  config.spool_dir = spool;
  config.workers = 2;
  config.once = true;

  // First --once run on an empty spool just creates the layout.
  ASSERT_EQ(run_daemon(config), 0);

  const auto submit = [&](const std::string& job) {
    std::ofstream out(spool + "/incoming/" + job + ".ini");
    out << kFaultedSpec;
  };
  const auto status_of = [&](const std::string& job) {
    std::ifstream in(spool + "/status/" + job + ".json");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };

  submit("first");
  ASSERT_EQ(run_daemon(config), 0);
  const std::string first = status_of("first");
  EXPECT_NE(first.find("\"state\": \"done\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"cache\": \"miss\""), std::string::npos) << first;
  // The artifact exists, is valid-ish JSON, and carries the spec identity.
  const SweepSpec spec = parse_or_die(kFaultedSpec);
  const std::string artifact_path =
      spool + "/cache/" + scenario_hash_hex(spec) + ".json";
  std::ifstream artifact(artifact_path);
  ASSERT_TRUE(static_cast<bool>(artifact)) << artifact_path;
  std::ostringstream artifact_text;
  artifact_text << artifact.rdbuf();
  EXPECT_NE(artifact_text.str().find("\"bench\": \"service_test\""),
            std::string::npos);
  EXPECT_NE(artifact_text.str().find("\"runs\""), std::string::npos);
  // The spec moved out of incoming/ into done/.
  struct stat st {};
  EXPECT_NE(::stat((spool + "/incoming/first.ini").c_str(), &st), 0);
  EXPECT_EQ(::stat((spool + "/done/first.ini").c_str(), &st), 0);

  // Resubmitting the same spec under another job name: answered from the
  // cache without re-running.
  submit("second");
  ASSERT_EQ(run_daemon(config), 0);
  const std::string second = status_of("second");
  EXPECT_NE(second.find("\"state\": \"done\""), std::string::npos) << second;
  EXPECT_NE(second.find("\"cache\": \"hit\""), std::string::npos) << second;

  // A malformed submission fails its job (daemon exits 0 regardless) and
  // lands in failed/.
  {
    std::ofstream out(spool + "/incoming/broken.ini");
    out << "[experiment\nalgorithm = alg3\n";
  }
  ASSERT_EQ(run_daemon(config), 0);
  const std::string broken = status_of("broken");
  EXPECT_NE(broken.find("\"state\": \"failed\""), std::string::npos)
      << broken;
  EXPECT_EQ(::stat((spool + "/failed/broken.ini").c_str(), &st), 0);

  // Shutdown sentinel: removed, clean exit, even in watch mode.
  {
    std::ofstream sentinel(spool + "/shutdown");
  }
  DaemonConfig watch = config;
  watch.once = false;
  ASSERT_EQ(run_daemon(watch), 0);
  EXPECT_NE(::stat((spool + "/shutdown").c_str(), &st), 0);
}

TEST(SweepArtifact, MatchesBenchSchema) {
  SweepSpec spec = parse_or_die(kFaultedSpec);
  spec.trials = 3;
  SweepResult result;
  std::string error;
  ASSERT_TRUE(run_sweep(spec, 2, result, &error)) << error;
  const std::string json = sweep_artifact_json(spec, result);
  for (const char* field :
       {"\"bench\": \"service_test\"", "\"params\"", "\"runs\"",
        "\"throughput\"", "\"scenario_hash\"", "\"binary_version\"",
        "\"fault_trials\"", "\"sweep_key\": \"overlap\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << "\n" << json;
  }
}

}  // namespace
}  // namespace m2hew::service
