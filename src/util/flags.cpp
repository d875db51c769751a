#include "util/flags.hpp"

#include <cstdlib>

#include "util/check.hpp"

namespace m2hew::util {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
      continue;
    }
    // "--key value" form: consume the next token unless it is a flag.
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      values_[std::string(body)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(body)] = "";  // boolean presence
    }
  }
  for (const auto& [key, value] : values_) {
    consumed_[key] = false;
  }
}

bool Flags::has(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  consumed_[it->first] = true;
  return true;
}

std::string Flags::get_string(std::string_view name,
                              std::string_view def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::string(def);
  consumed_[it->first] = true;
  return it->second;
}

void Flags::report_malformed(std::string_view name, std::string_view value,
                             const char* expected) const {
  const std::string message = "--" + std::string(name) + ": value '" +
                              std::string(value) + "' " + expected;
  M2HEW_CHECK_MSG(false, message.c_str());
}

std::int64_t Flags::get_int(std::string_view name, std::int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[it->first] = true;
  char* end = nullptr;
  const long long parsed = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    report_malformed(name, it->second, "is not an integer");
    return def;
  }
  return parsed;
}

double Flags::get_double(std::string_view name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[it->first] = true;
  char* end = nullptr;
  const double parsed = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    report_malformed(name, it->second, "is not a number");
    return def;
  }
  return parsed;
}

bool Flags::get_bool(std::string_view name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[it->first] = true;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  report_malformed(name, v, "is not a boolean");
  return def;
}

std::vector<std::string> Flags::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [key, used] : consumed_) {
    if (!used) out.push_back(key);
  }
  return out;
}

}  // namespace m2hew::util
