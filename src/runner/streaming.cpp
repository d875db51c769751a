#include "runner/streaming.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

namespace m2hew::runner {

std::string encode_outcome(std::size_t trial, const TrialOutcome& outcome) {
  // %a renders the exact binary representation of the doubles, so decode
  // reproduces them bit-for-bit; everything else is integral.
  const sim::RobustnessReport& r = outcome.robustness;
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "R %zu %d %a %d %zu %zu %zu %zu %zu %a %d %zu %zu %zu %zu %a",
                trial, outcome.complete ? 1 : 0, outcome.completion,
                r.enabled ? 1 : 0, r.surviving_links,
                r.covered_surviving_links, r.ghost_entries, r.recovered_links,
                r.rediscovered_links, r.mean_rediscovery, r.adversary ? 1 : 0,
                r.real_entries, r.fake_entries, r.isolated_fakes,
                r.honest_isolated, r.mean_isolation);
  return buf;
}

std::optional<std::pair<std::size_t, TrialOutcome>> decode_outcome(
    std::string_view line) {
  if (line.size() < 2 || line[0] != 'R' || line[1] != ' ') return {};
  const std::string text(line.substr(2));
  std::size_t trial = 0;
  TrialOutcome outcome;
  sim::RobustnessReport& r = outcome.robustness;
  int complete = 0;
  int fault = 0;
  int adversary = 0;
  int consumed = -1;
  const int matched = std::sscanf(
      text.c_str(),
      "%zu %d %la %d %zu %zu %zu %zu %zu %la %d %zu %zu %zu %zu %la%n",
      &trial, &complete, &outcome.completion, &fault, &r.surviving_links,
      &r.covered_surviving_links, &r.ghost_entries, &r.recovered_links,
      &r.rediscovered_links, &r.mean_rediscovery, &adversary,
      &r.real_entries, &r.fake_entries, &r.isolated_fakes,
      &r.honest_isolated, &r.mean_isolation, &consumed);
  if (matched != 16 || consumed < 0 ||
      static_cast<std::size_t>(consumed) != text.size()) {
    return {};
  }
  if ((complete != 0 && complete != 1) || (fault != 0 && fault != 1) ||
      (adversary != 0 && adversary != 1)) {
    return {};
  }
  outcome.complete = complete == 1;
  r.enabled = fault == 1;
  r.adversary = adversary == 1;
  return std::make_pair(trial, std::move(outcome));
}

bool place_outcome(std::string_view line,
                   std::vector<std::optional<TrialOutcome>>& slots) {
  auto decoded = decode_outcome(line);
  if (!decoded.has_value()) return false;
  const std::size_t trial = decoded->first;
  if (trial < slots.size() && !slots[trial].has_value()) {
    slots[trial] = std::move(decoded->second);
  }
  return true;
}

std::string encode_end_marker(std::size_t shard, std::size_t emitted) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "E %zu %zu", shard, emitted);
  return buf;
}

std::optional<std::pair<std::size_t, std::size_t>> decode_end_marker(
    std::string_view line) {
  if (line.size() < 2 || line[0] != 'E' || line[1] != ' ') return {};
  const std::string text(line.substr(2));
  std::size_t shard = 0;
  std::size_t emitted = 0;
  int consumed = -1;
  if (std::sscanf(text.c_str(), "%zu %zu%n", &shard, &emitted, &consumed) !=
          2 ||
      consumed < 0 || static_cast<std::size_t>(consumed) != text.size()) {
    return {};
  }
  return std::make_pair(shard, emitted);
}

}  // namespace m2hew::runner
