#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double tail_quantile_level(std::size_t samples) {
  if (samples == 0) return 0.5;
  return std::max(0.5, 1.0 - 10.0 / static_cast<double>(samples));
}

void set_job_metrics(Metrics& metrics, const std::vector<double>& job_s,
                     const std::vector<double>& job_trials,
                     const std::vector<double>& job_node_slots) {
  std::vector<double> trial_rate, slot_rate;
  for (std::size_t j = 0; j < job_s.size(); ++j) {
    trial_rate.push_back(job_trials[j] / job_s[j]);
    slot_rate.push_back(job_node_slots[j] / job_s[j]);
  }
  metrics.set("trials_per_s", median(trial_rate));
  metrics.set("node_slots_per_s", median(slot_rate));
  metrics.set("job_s_p50", median(job_s));
  const double level = tail_quantile_level(job_s.size());
  metrics.set("e2e.job_samples", static_cast<double>(job_s.size()));
  metrics.set("e2e.job_ptail_level", level);
  metrics.set("e2e.job_s_ptail", quantile(job_s, level));
}

std::size_t fanout(std::size_t cap) {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, cap);
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xFFu;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(const std::string& text) {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ULL;
  }
  add(static_cast<std::uint64_t>(text.size()));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name,
                           long trial)
    : recorder_(recorder), start_(Clock::now()) {
  if (!recorder_.enabled_) return;
  Span span;
  span.name = std::move(name);
  span.start = seconds_between(recorder_.origin_, start_);
  span.parent = recorder_.open_.empty() ? -1 : recorder_.open_.back();
  span.trial = trial;
  index_ = static_cast<int>(recorder_.spans_.size());
  recorder_.spans_.push_back(std::move(span));
  recorder_.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  recorder_.spans_[static_cast<std::size_t>(index_)].end =
      seconds_since(recorder_.origin_);
  recorder_.open_.pop_back();
}

namespace {

[[nodiscard]] std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Per-span self time: duration minus the summed duration of its direct
/// children (children nest strictly inside their parent on one thread).
[[nodiscard]] std::vector<double> self_times(
    const std::vector<SpanRecorder::Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const SpanRecorder::Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
    }
  }
  return self;
}

[[nodiscard]] std::map<std::string, double> self_by_layer(
    const std::vector<SpanRecorder::Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    layers[layer_of(spans[i].name)] += self[i];
  }
  return layers;
}

[[nodiscard]] double root_wall(const std::vector<SpanRecorder::Span>& spans) {
  double wall = 0.0;
  for (const SpanRecorder::Span& span : spans) {
    if (span.parent < 0) wall += span.end - span.start;
  }
  return wall;
}

}  // namespace

void SpanRecorder::summarize(Metrics& metrics, double traced_wall_s) const {
  const double wall = root_wall(spans_);
  if (wall <= 0.0) return;
  double self_total = 0.0;
  double layer_total = 0.0;
  for (const auto& [layer, self] : self_by_layer(spans_)) {
    self_total += self;
    if (layer == "bench") {
      metrics.set("trace.bench_self_s", self);
    } else {
      metrics.set(layer + ".self_s", self);
      layer_total += self;
    }
  }
  double trial_time = 0.0;
  for (const Span& span : spans_) {
    const bool outer_trial =
        span.trial >= 0 &&
        (span.parent < 0 ||
         spans_[static_cast<std::size_t>(span.parent)].trial < 0);
    if (outer_trial) trial_time += span.end - span.start;
  }
  metrics.set("trace.span_coverage", layer_total / wall);
  metrics.set("trace.self_sum_ratio",
              traced_wall_s > 0.0 ? self_total / traced_wall_s : 0.0);
  metrics.set("trace.trial_span_share", trial_time / wall);
  metrics.set("trace.spans", static_cast<double>(spans_.size()));
}

void SpanRecorder::write_report(
    const std::string& path, const std::map<std::string, double>& sizes) const {
  const double wall = root_wall(spans_);
  const std::map<std::string, double> layers = self_by_layer(spans_);

  std::printf("\nself time by layer, traced pass of %s (wall %.3f s):\n",
              workload_.c_str(), wall);
  for (const auto& [layer, self] : layers) {
    std::printf("  %-8s %10.4f s  %5.1f%%\n", layer.c_str(), self,
                wall > 0.0 ? 100.0 * self / wall : 0.0);
  }
  std::printf("sizes:");
  for (const auto& [name, value] : sizes) {
    std::printf(" %s=%.17g", name.c_str(), value);
  }
  std::printf("\ntrace written to %s\n", path.c_str());

  std::ofstream out(path);
  out << "{\n  \"workload\": \"" << workload_ << "\",\n  \"sizes\": {";
  bool first = true;
  char buf[512];
  for (const auto& [name, value] : sizes) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", first ? "" : ", ",
                  name.c_str(), value);
    out << buf;
    first = false;
  }
  out << "},\n  \"wall_s\": " << wall << ",\n  \"self_s\": {";
  first = true;
  for (const auto& [layer, self] : layers) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.9g", first ? "" : ", ",
                  layer.c_str(), self);
    out << buf;
    first = false;
  }
  out << "},\n  \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %d, \"workload\": \"%s\", "
                  "\"trial\": %ld}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.start, s.end,
                  s.parent, workload_.c_str(), s.trial);
    out << buf;
  }
  out << "\n  ]\n}\n";
}

void finish_trace(const SpanRecorder& recorder, const Options& options,
                  double traced_wall_s, WorkloadResult& result) {
  recorder.summarize(result.metrics, traced_wall_s);
  std::map<std::string, double> sizes;
  for (const auto& [name, value] : result.metrics.values) {
    if (name.rfind("size.", 0) == 0 || name == "net.arcs") sizes[name] = value;
  }
  recorder.write_report(options.out_dir + "/trace-" + options.workload +
                            "-seed" + std::to_string(options.seed) + ".json",
                        sizes);
}

}  // namespace perfbench
