// m2hew_sweep — client for the m2hew_sweepd spool: submit a sweep spec,
// wait for its status document, and report the artifact location.
//
//   $ m2hew_sweep sweep.ini --dir=sweepd
//   submitted job 'sweep' (spec rho_sweep)
//   done: cache miss, artifact sweepd/cache/a1b2....json
//
//   $ m2hew_sweep --shutdown --dir=sweepd      # ask the daemon to exit
//
// Flags:
//   --dir=PATH      daemon spool directory (default "sweepd")
//   --job=NAME      job name (default: spec file stem)
//   --timeout-s=N   how long to wait for completion (default 600)
//   --no-wait       submit and exit without polling
//   --shutdown      create the shutdown sentinel instead of submitting
//
// Exit status: 0 = job done (or submitted with --no-wait / sentinel
// created), 1 = job failed, 2 = usage or I/O error, 3 = timeout.
#include <cstdio>
#include <fstream>
#include <poll.h>
#include <sstream>
#include <string>
#include <string_view>

#include "util/flags.hpp"

namespace {

using namespace m2hew;

/// Minimal status-field reader: finds "name": "value" in the daemon's own
/// status JSON (fields the daemon writes are always escaped strings).
[[nodiscard]] std::string json_field(const std::string& doc,
                                     std::string_view name) {
  std::string needle = "\"";
  needle += name;
  needle += "\": \"";
  const auto at = doc.find(needle);
  if (at == std::string::npos) return "";
  const auto begin = at + needle.size();
  const auto end = doc.find('"', begin);
  if (end == std::string::npos) return "";
  return doc.substr(begin, end - begin);
}

[[nodiscard]] std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path);
  *ok = static_cast<bool>(in);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

[[nodiscard]] std::string job_stem(std::string_view path) {
  const auto slash = path.find_last_of('/');
  std::string_view name =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  if (name.size() > 4 && name.substr(name.size() - 4) == ".ini") {
    name = name.substr(0, name.size() - 4);
  }
  return std::string(name);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::string dir = flags.get_string("dir", "sweepd");

  if (flags.get_bool("shutdown", false)) {
    const std::string sentinel = dir + "/shutdown";
    std::ofstream out(sentinel);
    if (!out) {
      std::fprintf(stderr, "cannot create %s\n", sentinel.c_str());
      return 2;
    }
    std::printf("shutdown requested (%s)\n", sentinel.c_str());
    return 0;
  }

  if (flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: m2hew_sweep <spec.ini> [--dir=SPOOL] [--job=NAME] "
                 "[--timeout-s=N] [--no-wait] | --shutdown [--dir=SPOOL]\n");
    return 2;
  }
  const std::string spec_path = flags.positional().front();
  const std::string job =
      flags.get_string("job", job_stem(spec_path).c_str());
  if (job.empty()) {
    std::fprintf(stderr, "empty job name\n");
    return 2;
  }
  const auto timeout_s = flags.get_int("timeout-s", 600);
  const bool wait = !flags.get_bool("no-wait", false);
  for (const std::string& unknown : flags.unconsumed()) {
    std::fprintf(stderr, "m2hew_sweep: unknown flag --%s\n",
                 unknown.c_str());
    return 2;
  }

  bool ok = false;
  const std::string spec_text = read_file(spec_path, &ok);
  if (!ok) {
    std::fprintf(stderr, "cannot read %s\n", spec_path.c_str());
    return 2;
  }

  // Submit atomically: write next to the final name, then rename, so the
  // daemon can never scan a half-written spec.
  const std::string final_path = dir + "/incoming/" + job + ".ini";
  const std::string tmp_path = dir + "/incoming/." + job + ".ini.tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr,
                   "cannot write under %s/incoming — is the daemon's spool "
                   "there?\n",
                   dir.c_str());
      return 2;
    }
    out << spec_text;
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::fprintf(stderr, "cannot rename spec into %s\n", final_path.c_str());
    std::remove(tmp_path.c_str());
    return 2;
  }
  std::printf("submitted job '%s' -> %s\n", job.c_str(), final_path.c_str());
  if (!wait) return 0;

  const std::string status_path = dir + "/status/" + job + ".json";
  const int poll_ms = 100;
  for (long waited_ms = 0; waited_ms <= timeout_s * 1000;
       waited_ms += poll_ms) {
    bool have_status = false;
    const std::string doc = read_file(status_path, &have_status);
    if (have_status) {
      const std::string state = json_field(doc, "state");
      if (state == "done") {
        std::printf("done: cache %s, artifact %s\n",
                    json_field(doc, "cache").c_str(),
                    json_field(doc, "artifact").c_str());
        return 0;
      }
      if (state == "failed") {
        std::fprintf(stderr, "job failed: %s\n",
                     json_field(doc, "error").c_str());
        return 1;
      }
    }
    ::poll(nullptr, 0, poll_ms);
  }
  std::fprintf(stderr, "timed out after %lld s waiting for %s\n",
               static_cast<long long>(timeout_s), status_path.c_str());
  return 3;
}
