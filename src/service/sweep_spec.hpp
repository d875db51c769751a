// SweepSpec: the resolved form of a sweep-definition INI file — the same
// format tools/m2hew_experiment reads — as consumed by the sweep service.
//
// Parsing rejects unknown sections and keys and out-of-range values with
// a one-line message, because a daemon cannot ask the submitter "did you
// mean set-size?" at a terminal, and it never aborts the process (the
// daemon must survive bad specs).
//
// The spec also defines its own identity: scenario_hash() keys the
// content-addressed artifact cache. The hash is taken over the RESOLVED
// spec (every effective field rendered in a fixed order, defaults filled
// in) chained with the binary version, so two files that differ only in
// key order, whitespace, comments, or explicitly writing a default value
// collide onto the same cache entry — and any change to either the
// effective parameters or the simulator binary misses. See
// docs/OPERATIONS.md "Cache layout".
#pragma once

#include <cstdint>
#include <string>

#include "runner/knobs.hpp"

namespace m2hew::service {

/// The spec struct, its parser and format_sweep_value are defined by the
/// knob table (runner/knobs.hpp), which every front end shares; parsing
/// is strict and never aborts — every failure is a one-line message
/// naming the key.
using runner::format_sweep_value;
using runner::parse_sweep_spec;
using SweepSpec = runner::SweepSpec;

/// The simulator build identity folded into every cache key: the value of
/// M2HEW_GIT_DESCRIBE baked in at configure time, `src-` plus 16 hex
/// digits of a hash of every file under src/ (a build may define its own
/// value, as perfbench's does). The environment
/// variable M2HEW_BINARY_VERSION overrides it when set — a test hook for
/// exercising cache invalidation without rebuilding.
[[nodiscard]] std::string binary_version();

/// Cache key: fnv1a64(canonical spec ‖ binary version).
[[nodiscard]] std::uint64_t scenario_hash(const SweepSpec& spec);
/// The 16-hex-digit form used in file names, status JSON and logs.
[[nodiscard]] std::string scenario_hash_hex(const SweepSpec& spec);

}  // namespace m2hew::service
