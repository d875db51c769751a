// Shared plumbing of the benchmark program: options, metric sink, outcome
// digests, host timing and the span recorder used by the traced pass.
//
// Every layer is measured from outside: the program times calls into the
// library's public functions and never changes code under src/. See
// perfbench/README.md for the workloads and the metric definitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Problem sizes: `full` is the benchmark proper, `tiny` the shrunken
/// self-test size (seconds per workload, same code paths).
enum class Scale { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string out_dir;  ///< trace reports and spool/cache scratch go here
};

// --- host time --------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Process high-water RSS (getrusage), in MB.
[[nodiscard]] double peak_rss_mb();

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);
[[nodiscard]] double sum(const std::vector<double>& values);

/// The highest quantile with at least ten samples beyond it (never below
/// the median): the tail figure reported next to every p50.
[[nodiscard]] double tail_quantile_level(std::size_t samples);

// --- outcome digests ----------------------------------------------------------

/// FNV-1a over the simulated outcomes a workload pins (completion flags,
/// slots, covered links, artifact bytes). Host timings never enter it.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);  ///< by bit pattern: outputs must match exactly
  void add(const std::string& text);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

// --- metric sink -------------------------------------------------------------

/// Name → value for one run. main.cpp owns the registry of names and
/// units; a workload sets what it measures and everything else reads 0.
struct Metrics {
  std::map<std::string, double> values;
  void set(const std::string& name, double value) { values[name] = value; }
};

/// The job-level end-to-end metrics, from per-job wall time and the
/// trials and simulated node-slots each job ran: medians over jobs of
/// trials/s and node-slots/s, job_s_p50, and the e2e.job_* tail figures.
/// Medians keep one job slowed by other tenants of the host from moving
/// the run's figure.
void set_job_metrics(Metrics& metrics, const std::vector<double>& job_s,
                     const std::vector<double>& job_trials,
                     const std::vector<double>& job_node_slots);

/// What a workload hands back to main.
struct WorkloadResult {
  Metrics metrics;
  std::size_t attempted = 0;  ///< trials, jobs and cross-checks attempted
  std::size_t failed = 0;     ///< digest/cross-check mismatches, failed jobs
  std::vector<std::string> errors;
  Digest digest;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    errors.push_back(what);
  }
};

// --- traced pass -------------------------------------------------------------

/// In-memory span recorder. Spans are opened and closed on the program's
/// own thread around calls into the library; nothing is written until
/// write_report(). When disabled, Scope costs one branch.
class SpanRecorder {
 public:
  struct Span {
    std::string name;  ///< "<layer>.<what>", layer = net|core|sim|runner|service|bench
    double start = 0.0;  ///< seconds since the recorder's origin
    double end = 0.0;
    int parent = -1;
    long trial = -1;  ///< trial or job id, -1 when the span is not per-trial
  };

  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, long trial = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the scope opened (measured whether or not enabled).
    [[nodiscard]] double elapsed() const { return seconds_since(start_); }

   private:
    SpanRecorder& recorder_;
    int index_ = -1;
    Clock::time_point start_;
  };

  explicit SpanRecorder(std::string workload) : workload_(std::move(workload)) {}

  void enable() {
    enabled_ = true;
    origin_ = Clock::now();
  }

  /// Self time per layer (span minus the part its children cover), the
  /// share of the root span its layer spans cover, the summed duration of
  /// per-trial spans, and all self times over `traced_wall_s` (timed apart
  /// from the spans). Fills trace.* and <layer>.self_s metrics.
  void summarize(Metrics& metrics, double traced_wall_s) const;

  /// Writes every span plus the self-time table as JSON to `path`, and
  /// prints the self-time table to stdout.
  void write_report(const std::string& path,
                    const std::map<std::string, double>& sizes) const;

 private:
  friend class Scope;
  std::string workload_;
  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// Ends a traced pass: folds the recorder's summary into the result's
/// metrics (with `traced_wall_s`, timed independently of the spans, as the
/// base of trace.self_sum_ratio) and writes the span report, with the
/// run's size.* and net.arcs metrics, under options.out_dir.
void finish_trace(const SpanRecorder& recorder, const Options& options,
                  double traced_wall_s, WorkloadResult& result);

// --- workloads ---------------------------------------------------------------

[[nodiscard]] WorkloadResult run_soa(const Options& options, bool faulted);
[[nodiscard]] WorkloadResult run_engine_mix(const Options& options);
[[nodiscard]] WorkloadResult run_sweepd(const Options& options);

/// Trial or shard fan-out: min(cap, hardware threads).
[[nodiscard]] std::size_t fanout(std::size_t cap);

}  // namespace perfbench
