// m2hew_perfbench — runs one benchmark workload and prints its result.
//
//   m2hew_perfbench --workload <soa-large|soa-faulted|engine-mix|sweepd-job>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--scale full|tiny] [--out-dir <dir>]
//
// The last stdout line is one JSON object: correct / attempted / failed,
// the outcome digest, and the metrics (end-to-end ones with --trace 0,
// per-layer ones with --trace 1). perfbench/run.py wraps this binary for
// the benchmark command line and checks the digest against the pins.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// Every metric the program can print. Each run prints every entry of its
// kind; a layer a workload does not touch reads 0.
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", true},
    {"trials_per_s", "1/s", true},
    {"node_slots_per_s", "1/s", true},
    {"job_s_p50", "s", true},
    {"peak_rss_mb", "MB", true},

    {"e2e.error_rate", "ratio", false},
    {"e2e.job_samples", "count", false},
    {"e2e.job_s_ptail", "s", false},
    {"e2e.job_ptail_level", "ratio", false},

    {"size.nodes", "count", false},
    {"size.trials", "count", false},
    {"size.calls", "count", false},
    {"size.fanout", "count", false},
    {"size.nproc", "count", false},

    {"net.topology_gen_s", "s", false},
    {"net.network_build_s", "s", false},
    {"net.arcs", "count", false},
    {"core.policy_table_s", "s", false},
    {"sim.soa.flatten_s", "s", false},

    {"sim.soa.trial_fixed_s", "s", false},
    {"sim.soa.rss_delta_mb", "MB", false},
    {"sim.soa.ns_per_node_slot", "ns", false},
    {"sim.soa.receptions", "count", false},
    {"sim.soa.covered_links", "count", false},
    {"sim.soa.tx_slots", "count", false},
    {"sim.soa.listen_slots", "count", false},
    {"sim.soa.useful_rx_ratio", "ratio", false},
    {"sim.soa.arc_scans_computed", "count", false},

    {"sim.slot.trial_us_p50", "us", false},
    {"sim.slot.trial_us_p95", "us", false},
    {"sim.slot.ns_per_node_slot", "ns", false},
    {"sim.slot.trial_fixed_us", "us", false},
    {"sim.slot_faulted.trial_us_p50", "us", false},
    {"sim.slot_faulted.trial_us_p95", "us", false},
    {"sim.slot_faulted.ns_per_node_slot", "ns", false},
    {"sim.slot_faulted.trial_fixed_us", "us", false},
    {"sim.multi_radio.trial_us_p50", "us", false},
    {"sim.multi_radio.trial_us_p95", "us", false},
    {"sim.multi_radio.ns_per_node_slot", "ns", false},
    {"sim.multi_radio.trial_fixed_us", "us", false},
    {"sim.async.trial_us_p50", "us", false},
    {"sim.async.trial_us_p95", "us", false},
    {"sim.async.ns_per_node_frame", "ns", false},
    {"sim.async.trial_fixed_us", "us", false},

    {"runner.calls", "count", false},
    {"runner.trials", "count", false},
    {"runner.pool_spinup_us", "us", false},
    {"runner.fanout_efficiency", "ratio", false},

    {"service.spec_parse_us", "us", false},
    {"service.run_sweep_batch_s", "s", false},
    {"service.run_sweep_sharded_s", "s", false},
    {"service.daemon_overhead_s", "s", false},
    {"service.cache_probe_us", "us", false},
    {"service.hit_ms_p50", "ms", false},

    {"net.self_s", "s", false},
    {"core.self_s", "s", false},
    {"sim.self_s", "s", false},
    {"runner.self_s", "s", false},
    {"service.self_s", "s", false},
    {"trace.bench_self_s", "s", false},
    {"trace.span_coverage", "ratio", false},
    {"trace.self_sum_ratio", "ratio", false},
    {"trace.trial_span_share", "ratio", false},
    {"trace.overhead_pct", "%", false},
    {"trace.spans", "count", false},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "m2hew_perfbench: %s\nusage: m2hew_perfbench --workload "
               "<soa-large|soa-faulted|engine-mix|sweepd-job> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale full|tiny] "
               "[--out-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  options.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") usage("bad --scale");
      options.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

WorkloadResult run_workload(const Options& options) {
  if (options.workload == "soa-large") return run_soa(options, false);
  if (options.workload == "soa-faulted") return run_soa(options, true);
  if (options.workload == "engine-mix") return run_engine_mix(options);
  if (options.workload == "sweepd-job") return run_sweepd(options);
  usage(("unknown workload " + options.workload).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  WorkloadResult result;
  try {
    result = run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m2hew_perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  Metrics& metrics = result.metrics;
  metrics.set("peak_rss_mb", peak_rss_mb());
  metrics.set("size.nproc",
              static_cast<double>(std::thread::hardware_concurrency()));  metrics.set("e2e.error_rate",
              result.attempted == 0
                  ? 0.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted));

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "m2hew_perfbench: check failed: %s\n",
                 error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"digest\": \"" + result.digest.hex() + "\", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : kMetrics) {
    if (def.end_to_end == options.trace) continue;
    const auto it = metrics.values.find(def.name);
    double value = it == metrics.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, value, def.unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
