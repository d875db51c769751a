#include "service/sweep_spec.hpp"

#include <cstdlib>

#include "util/hash.hpp"

#ifndef M2HEW_GIT_DESCRIBE
#define M2HEW_GIT_DESCRIBE "unknown"
#endif

namespace m2hew::service {

std::string binary_version() {
  const char* env = std::getenv("M2HEW_BINARY_VERSION");
  if (env != nullptr && *env != '\0') return env;
  return M2HEW_GIT_DESCRIBE;
}

std::uint64_t scenario_hash(const SweepSpec& spec) {
  return util::fnv1a64(binary_version(), util::fnv1a64(spec.canonical()));
}

std::string scenario_hash_hex(const SweepSpec& spec) {
  return util::hash_hex(scenario_hash(spec));
}

}  // namespace m2hew::service
