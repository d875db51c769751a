// sweepd-job: spec to artifact through the sweep daemon.
//
// A closed loop with one client: write a spec into a fresh spool's
// incoming/ (tmp + rename), drain it with service::run_daemon(once) at
// fan-out min(4, nproc) shard workers, read the status and the artifact,
// then submit the next. Each spec is a two-point sweep (set-size 4 and 3)
// over a connected unit-disk n = 48, |U| = 8, Algorithm 3 Δ_est = 16, with
// churn plus burst loss and 200 trials per point; specs differ only in
// their seed. After the cold jobs every spec is resubmitted under a new
// job name and must be answered from the artifact cache.
//
// Checks: every job reaches done (miss cold, hit warm); job 0's artifact
// matches an in-process run_sweep(workers=1) on every deterministic field.
// The traced pass adds spans around spec parsing, the daemon calls, the
// in-process sweeps and cache probes.
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>

#include "bench.hpp"
#include "service/artifact_cache.hpp"
#include "service/daemon.hpp"
#include "service/sweep_runner.hpp"
#include "service/sweep_spec.hpp"
#include "util/ini.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace m2hew;
namespace fs = std::filesystem;

// Host seconds per cold job at 4 shard workers on a 4-core x86 box; turns
// --seconds into a fixed job count (see workload_soa.cpp).
constexpr double kJobSeconds = 0.5;

struct Shape {
  net::NodeId n = 0;
  std::size_t trials_per_point = 0;
  std::size_t jobs = 0;
  std::size_t sharded_checks = 0;  ///< jobs also swept in-process, sharded
  std::size_t setup_repeats = 0;
  std::size_t probes = 0;
  std::size_t workers = 0;
  [[nodiscard]] std::size_t trials_per_job() const {
    return 2 * trials_per_point;
  }
};

Shape shape_of(const Options& options) {
  Shape shape;
  shape.workers = fanout(4);
  if (options.scale == Scale::kTiny) {
    shape.n = 12;
    shape.trials_per_point = 8;
    shape.jobs = 2;
    shape.sharded_checks = 1;
    shape.setup_repeats = 3;
    shape.probes = 5;
    return shape;
  }
  shape.n = 48;
  shape.trials_per_point = 200;
  shape.jobs = static_cast<std::size_t>(
      std::max(4.0, std::round(options.seconds / kJobSeconds)));
  shape.sharded_checks = 3;
  shape.setup_repeats = 51;
  shape.probes = 201;
  return shape;
}

constexpr std::uint64_t kMaxSlots = 200'000;

std::string spec_text(const Shape& shape, std::uint64_t seed) {
  std::ostringstream out;
  out << "[experiment]\nname = perfbench_sweepd\nalgorithm = alg3\n"
      << "delta-est = 16\ntrials = " << shape.trials_per_point
      << "\nseed = " << seed << "\nmax-slots = " << kMaxSlots
      << "\nsweep-key = set-size\nsweep-values = 4 3\n\n"
      << "[scenario]\ntopology = unit-disk\nn = " << shape.n
      << "\nud-radius = " << (shape.n < 48 ? "0.5" : "0.35")
      << "\nchannels = uniform\nuniverse = 8\nset-size = 4\n\n"
      << "[faults]\ncrash-prob = 0.3\ncrash-from = 100\ncrash-until = 1500\n"
      << "down-min = 100\ndown-max = 600\nreset-on-recovery = 1\n"
      << "burst-loss = 0.8\nburst-p-gb = 0.02\nburst-p-bg = 0.1\n";
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The value of a "key": "value" string field in a flat JSON document.
std::string json_field(const std::string& doc, const std::string& key) {
  const std::regex field("\"" + key + "\": \"([^\"]*)\"");
  std::smatch match;
  return std::regex_search(doc, match, field) ? match[1].str() : "";
}

/// The artifact with its host-time fields (elapsed seconds, thread and
/// worker counts, the throughput footer) removed: what must be identical
/// however and wherever the sweep ran.
std::string deterministic_fields(const std::string& artifact) {
  static const std::regex timing(
      R"re("(elapsed_seconds|threads|busy_seconds|trials_per_second|default_threads)": [0-9.eE+-]+)re");
  static const std::regex workers(R"re("workers": "[0-9]+")re");
  return std::regex_replace(std::regex_replace(artifact, timing, ""), workers,
                            "");
}

/// Simulated node-slots behind an artifact: per sweep point, completed
/// trials ran to their completion slot, the rest to the slot budget.
double artifact_node_slots(const std::string& artifact, double n) {
  static const std::regex run(
      R"re("trials": ([0-9]+), "completed": ([0-9]+), "success_rate": [^,]+, "mean_completion": ([^,]+),)re");
  double slots = 0.0;
  for (auto it = std::sregex_iterator(artifact.begin(), artifact.end(), run);
       it != std::sregex_iterator(); ++it) {
    const double trials = std::stod((*it)[1].str());
    const double completed = std::stod((*it)[2].str());
    const double mean = std::stod((*it)[3].str());
    slots += completed * (mean + 1.0) +
             (trials - completed) * static_cast<double>(kMaxSlots);
  }
  return n * slots;
}

struct Spool {
  service::DaemonConfig config;
  std::string root;
};

/// A spool and cache on an empty `root`: the daemon's first --once run
/// there creates the layout.
Spool make_spool(const std::string& root, std::size_t workers,
                 WorkloadResult& result) {
  Spool spool;
  spool.root = root;
  spool.config.spool_dir = root;
  spool.config.workers = workers;
  spool.config.once = true;
  result.check(service::run_daemon(spool.config) == 0,
               "spool set-up failed under " + root);
  return spool;
}

struct JobRun {
  double latency = 0.0;
  std::string cache;     ///< "miss" / "hit" as the status file reports it
  std::string artifact;  ///< artifact text ("" when the job did not finish)
};

/// One closed-loop submission: submit, drain, read status and artifact.
JobRun submit_and_drain(const Spool& spool, const std::string& job,
                        const std::string& text, SpanRecorder& recorder,
                        long id) {
  JobRun run;
  const auto start = Clock::now();
  {
    SpanRecorder::Scope span(recorder, "service.submit", id);
    const std::string tmp = spool.root + "/" + job + ".ini.tmp";
    std::ofstream(tmp) << text;
    fs::rename(tmp, spool.root + "/incoming/" + job + ".ini");
  }
  std::string status;
  {
    SpanRecorder::Scope span(recorder, "service.run_daemon", id);
    if (service::run_daemon(spool.config) != 0) return run;
    status = read_file(spool.root + "/status/" + job + ".json");
  }
  run.latency = seconds_since(start);
  if (json_field(status, "state") != "done") return run;
  run.cache = json_field(status, "cache");
  run.artifact = read_file(json_field(status, "artifact"));
  return run;
}

struct PassResult {
  std::vector<double> cold, warm;
  std::vector<std::string> artifacts;
  double setup_s = 0.0;
  std::string spool_root;  ///< the spool that served the jobs
};

/// Cold jobs then warm resubmissions through one fresh spool.
PassResult run_jobs(const Shape& shape, const std::vector<std::string>& texts,
                    const std::string& root, SpanRecorder& recorder,
                    WorkloadResult& result, bool checked) {
  PassResult pass;
  std::vector<double> setup;
  std::optional<Spool> spool;
  {
    SpanRecorder::Scope span(recorder, "bench.setup");
    // Each repeat creates its spool in a directory of its own: recreating
    // one path right after removing it times the file system's clean-up,
    // not the daemon. The last spool serves the jobs.
    fs::remove_all(root);
    fs::create_directories(root);
    for (std::size_t r = 0; r < shape.setup_repeats; ++r) {
      if (spool) fs::remove_all(spool->root);
      SpanRecorder::Scope spool_span(recorder, "service.spool_setup");
      spool = make_spool(root + "/spool" + std::to_string(r), shape.workers,
                         result);
      setup.push_back(spool_span.elapsed());
    }
  }
  pass.setup_s = median(setup);
  pass.spool_root = spool->root;
  {
    SpanRecorder::Scope span(recorder, "bench.cold");
    for (std::size_t j = 0; j < texts.size(); ++j) {
      const JobRun run = submit_and_drain(*spool, "cold" + std::to_string(j),
                                          texts[j], recorder,
                                          static_cast<long>(j));
      if (checked) {
        result.check(run.cache == "miss" && !run.artifact.empty(),
                     "cold job " + std::to_string(j) + " did not finish");
      }
      pass.cold.push_back(run.latency);
      pass.artifacts.push_back(run.artifact);
    }
  }
  {
    SpanRecorder::Scope span(recorder, "bench.warm");
    for (std::size_t j = 0; j < texts.size(); ++j) {
      const JobRun run = submit_and_drain(*spool, "warm" + std::to_string(j),
                                          texts[j], recorder,
                                          static_cast<long>(j));
      if (checked) {
        result.check(run.cache == "hit" && run.artifact == pass.artifacts[j],
                     "warm job " + std::to_string(j) +
                         " was not answered from the cache");
      }
      pass.warm.push_back(run.latency);
    }
  }
  return pass;
}

service::SweepSpec parse(const std::string& text) {
  service::SweepSpec spec;
  std::string error;
  if (!service::parse_sweep_spec(util::IniFile::parse_string(text), spec,
                                 &error)) {
    throw std::runtime_error("embedded spec rejected: " + error);
  }
  return spec;
}

/// In-process sweep of a spec, returning its artifact text and wall time.
std::string sweep_in_process(const std::string& text, std::size_t workers,
                             double& seconds) {
  const service::SweepSpec spec = parse(text);
  service::SweepResult sweep;
  std::string error;
  const auto start = Clock::now();
  if (!service::run_sweep(spec, workers, sweep, &error)) {
    throw std::runtime_error("in-process sweep failed: " + error);
  }
  seconds = seconds_since(start);
  return service::sweep_artifact_json(spec, sweep);
}

/// Traced-only measurements: spec parsing, in-process sweeps batch and
/// sharded, cache probes. Fills the service.* layer metrics.
void traced_service_probes(const Shape& shape,
                           const std::vector<std::string>& texts,
                           const std::vector<double>& cold_latency,
                           const std::string& cache_dir,
                           SpanRecorder& recorder, WorkloadResult& result) {
  Metrics& m = result.metrics;
  std::vector<double> parse_s;
  {
    SpanRecorder::Scope span(recorder, "bench.spec_parse");
    for (std::size_t p = 0; p < shape.probes; ++p) {
      SpanRecorder::Scope parse_span(recorder, "service.spec_parse");
      const service::SweepSpec spec = parse(texts[p % texts.size()]);
      const std::string key = service::scenario_hash_hex(spec);
      parse_s.push_back(parse_span.elapsed());
      if (key.size() != 16) throw std::runtime_error("bad scenario hash");
    }
  }
  m.set("service.spec_parse_us", 1e6 * median(parse_s));

  std::optional<SpanRecorder::Scope> in_process;
  in_process.emplace(recorder, "bench.in_process");
  double batch_s = 0.0;
  {
    SpanRecorder::Scope sweep_span(recorder, "service.run_sweep_batch", 0);
    (void)sweep_in_process(texts[0], 1, batch_s);
  }
  m.set("service.run_sweep_batch_s", batch_s);
  std::vector<double> sharded, overhead;
  for (std::size_t j = 0; j < shape.sharded_checks && j < texts.size(); ++j) {
    SpanRecorder::Scope sweep_span(recorder, "service.run_sweep_sharded",
                                   static_cast<long>(j));
    double seconds = 0.0;
    (void)sweep_in_process(texts[j], shape.workers, seconds);
    sharded.push_back(seconds);
    overhead.push_back(cold_latency[j] - seconds);
  }
  m.set("service.run_sweep_sharded_s", median(sharded));
  m.set("service.daemon_overhead_s", median(overhead));
  in_process.reset();

  SpanRecorder::Scope probes(recorder, "bench.cache_probe");
  const service::ArtifactCache cache(cache_dir);
  const service::SweepSpec spec = parse(texts[0]);
  std::vector<double> probe_s;
  for (std::size_t p = 0; p < shape.probes; ++p) {
    SpanRecorder::Scope probe(recorder, "service.cache_probe");
    const bool hit = cache.contains(service::scenario_hash_hex(spec));
    probe_s.push_back(probe.elapsed());
    if (!hit) throw std::runtime_error("cache probe missed a stored artifact");
  }
  m.set("service.cache_probe_us", 1e6 * median(probe_s));
}

}  // namespace

WorkloadResult run_sweepd(const Options& options) {
  // The daemon logs every job at info level; the benchmark keeps warnings
  // only, so the timings do not depend on where stderr goes.
  util::set_log_level(util::LogLevel::kWarn);
  const Shape shape = shape_of(options);
  const util::SeedSequence root(options.seed);
  std::vector<std::string> texts;
  for (std::size_t j = 0; j < shape.jobs; ++j) {
    texts.push_back(spec_text(shape, root.derive(2000 + j) % 1'000'000'007));
  }
  const std::string base = options.out_dir + "/sweepd-" +
                           std::to_string(options.seed) + "-" +
                           std::to_string(::getpid());
  WorkloadResult result;
  Metrics& m = result.metrics;
  m.set("size.nodes", shape.n);
  m.set("size.trials", static_cast<double>(shape.jobs * shape.trials_per_job()));
  m.set("size.calls", static_cast<double>(shape.jobs));
  m.set("size.fanout", static_cast<double>(shape.workers));

  SpanRecorder recorder(options.workload);
  double traced_cold = 0.0, traced_wall = 0.0;
  if (options.trace) {
    recorder.enable();
    const auto start = Clock::now();
    {
      SpanRecorder::Scope span(recorder, "bench.workload");
      const PassResult traced =
          run_jobs(shape, texts, base + "-traced", recorder, result, false);
      traced_cold = sum(traced.cold);
      traced_service_probes(shape, texts, traced.cold,
                            traced.spool_root + "/cache", recorder, result);
    }
    traced_wall = seconds_since(start);
  }

  SpanRecorder off("untraced");
  const PassResult pass = run_jobs(shape, texts, base, off, result, true);
  const double cold_s = sum(pass.cold);
  std::vector<double> node_slots;
  for (const std::string& artifact : pass.artifacts) {
    result.digest.add(deterministic_fields(artifact));
    node_slots.push_back(artifact_node_slots(artifact, shape.n));
  }
  m.set("setup_s", pass.setup_s);
  set_job_metrics(
      m, pass.cold,
      std::vector<double>(shape.jobs,
                          static_cast<double>(shape.trials_per_job())),
      node_slots);
  m.set("service.hit_ms_p50", 1e3 * median(pass.warm));

  // sweepd == in-process: job 0's artifact against run_sweep(workers=1).
  double seconds = 0.0;
  const std::string reference = sweep_in_process(texts[0], 1, seconds);
  result.check(deterministic_fields(reference) ==
                   deterministic_fields(pass.artifacts[0]),
               "daemon artifact differs from the in-process sweep");

  if (options.trace) {
    m.set("trace.overhead_pct", 100.0 * (traced_cold - cold_s) / cold_s);
    finish_trace(recorder, options, traced_wall, result);
  }
  fs::remove_all(base);
  fs::remove_all(base + "-traced");
  return result;
}

}  // namespace perfbench
