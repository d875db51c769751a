#include "service/artifact_cache.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "runner/report.hpp"
#include "util/log.hpp"

namespace m2hew::service {

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {
  ::mkdir(dir_.c_str(), 0755);  // EEXIST is fine
}

std::string ArtifactCache::path_for(const std::string& hash_hex) const {
  return dir_ + "/" + hash_hex + ".json";
}

bool ArtifactCache::contains(const std::string& hash_hex) const {
  struct stat st {};
  return ::stat(path_for(hash_hex).c_str(), &st) == 0;
}

bool ArtifactCache::store(const std::string& hash_hex,
                          const std::string& json) const {
  const std::string final_path = path_for(hash_hex);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      M2HEW_LOG_ERROR("cache: cannot open %s for writing", tmp_path.c_str());
      return false;
    }
    out << json;
    out.flush();
    if (!out) {
      M2HEW_LOG_ERROR("cache: short write to %s", tmp_path.c_str());
      std::remove(tmp_path.c_str());
      return false;
    }
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    M2HEW_LOG_ERROR("cache: rename %s -> %s failed", tmp_path.c_str(),
                    final_path.c_str());
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

void write_sweep_artifact(std::ostream& out, const SweepSpec& spec,
                          const SweepResult& result) {
  std::vector<runner::BenchJsonParam> params;
  params.emplace_back("name", spec.name);
  params.emplace_back("algorithm", spec.algorithm);
  params.emplace_back("trials_per_point", std::to_string(spec.trials));
  params.emplace_back("seed", std::to_string(spec.seed));
  params.emplace_back("kernel", runner::name_of(spec.kernel));
  params.emplace_back("workers", std::to_string(result.workers));
  params.emplace_back("scenario_hash", scenario_hash_hex(spec));
  params.emplace_back("binary_version", binary_version());
  if (!spec.sweep_key.empty()) {
    params.emplace_back("sweep_key", spec.sweep_key);
    std::string values;
    for (const double v : spec.sweep_values) {
      if (!values.empty()) values += ' ';
      values += format_sweep_value(v);
    }
    params.emplace_back("sweep_values", values);
  }

  // Run entries come from the sweep's own stats — never the process-wide
  // run log, which may hold earlier jobs' runs in a long-lived daemon.
  std::vector<runner::TrialRunRecord> runs;
  runs.reserve(result.points.size());
  for (const SweepPointResult& point : result.points) {
    runs.push_back(runner::make_sync_run_record(point.stats));
  }
  runner::write_bench_json_doc(out, spec.name, params, runs,
                               runner::throughput_of(runs), result.workers);
}

std::string sweep_artifact_json(const SweepSpec& spec,
                                const SweepResult& result) {
  std::ostringstream out;
  write_sweep_artifact(out, spec, result);
  return out.str();
}

}  // namespace m2hew::service
