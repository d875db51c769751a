// Minimal command-line flag parser for the tools/ binaries.
//
// Accepts GNU-style long options: --key=value or --key value; a flag with
// no value is boolean true. Everything not starting with "--" is a
// positional argument. Unknown-flag detection is the caller's job via
// unconsumed().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace m2hew::util {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view name) const;

  /// Typed getters return the default when the flag is absent; they abort
  /// (CHECK) when the flag is present but unparseable. Front ends that
  /// must exit 2 instead read their flags through the knob table
  /// (runner/knobs.hpp).
  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string_view def = "") const;
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t def = 0) const;
  [[nodiscard]] double get_double(std::string_view name,
                                  double def = 0.0) const;
  /// Boolean: present with no value, or "true"/"1" → true; "false"/"0" →
  /// false.
  [[nodiscard]] bool get_bool(std::string_view name, bool def = false) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Flags never read by any getter — use to reject typos.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  void report_malformed(std::string_view name, std::string_view value,
                        const char* expected) const;

  std::map<std::string, std::string, std::less<>> values_;
  mutable std::map<std::string, bool, std::less<>> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace m2hew::util
