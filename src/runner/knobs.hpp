// The knob table: the one place that defines every configuration knob of
// the front ends — its INI section and key, its CLI flag spelling, its
// type and allowed range, a one-line doc and the field it sets.
//
// One table drives strict, recoverable INI parsing of experiment/sweep
// specs (tools/m2hew_experiment and the sweep daemon), SweepSpec::
// canonical() and therefore the artifact cache key, the sweep-key point
// check, CLI flag parsing and the generated --help of m2hew_cli and
// m2hew_trace. Adding a knob means adding one row.
//
// Ranges are copied from the checks the simulator already has
// (validate_fault_plan, validate_trust_config, build_scenario and the
// generators), so no front end can reach those CHECKs with a bad value;
// the rules between knobs (check_rules / check_scenario) are written once
// here too. Nothing in this module aborts: every failure comes back as a
// one-line message naming the key as the caller's surface spells it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/bounds.hpp"
#include "core/policy_spec.hpp"
#include "core/trust.hpp"
#include "net/topology_provider.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "sim/fault_plan.hpp"
#include "sim/slot_engine.hpp"
#include "util/flags.hpp"

namespace m2hew::util {
class IniFile;
}

namespace m2hew::runner {

/// The resolved form of an experiment/sweep INI file, as run by
/// tools/m2hew_experiment and the sweep daemon (service::SweepSpec).
struct SweepSpec {
  std::string name = "experiment";
  std::string algorithm = "alg3";  ///< a row of the algorithm table
  std::size_t delta_est = 8;
  std::size_t trials = 30;
  std::uint64_t seed = 1;          ///< root seed; trial t uses derive(t)
  std::uint64_t max_slots = 1'000'000;
  SyncKernel kernel = SyncKernel::kEngine;
  std::string sweep_key;           ///< empty = single point
  std::vector<double> sweep_values;  ///< one 0.0 entry when no sweep-key
  ScenarioConfig scenario;
  sim::SlotFaultPlan faults;
  /// Optional [mobility] section (random-waypoint epoch dynamics). When
  /// enabled the runner builds an epoch topology provider per point and
  /// reports encounter metrics alongside completion statistics.
  MobilitySpec mobility;
  /// Optional [adversary] section: the attack itself lands in
  /// faults.adversary; this is the trust-maintenance defence (trust wraps
  /// policy objects, so a trusted spec runs on the slot engine).
  core::TrustConfig trust;

  /// Deterministic rendering of every effective field, fixed order,
  /// hexfloat doubles. This — not the submitted file text — is what gets
  /// hashed, so default-vs-explicit spellings of the same run coincide.
  [[nodiscard]] std::string canonical() const;
};

// ---------------------------------------------------------------------------
// Rows.

/// A name table: the accepted spellings of an enum or a restricted value.
using Names = std::span<const std::string_view>;

/// Allowed interval of a numeric knob.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
};
inline constexpr Range kAny{};
inline constexpr Range kUnit{0.0, 1.0};                ///< [0, 1]
inline constexpr Range kUnitOpenHi{0.0, 1.0, false, true};  ///< [0, 1)
inline constexpr Range kUnitOpenLo{0.0, 1.0, true, false};  ///< (0, 1]
inline constexpr Range kUnitOpen{0.0, 1.0, true, true};     ///< (0, 1)
[[nodiscard]] constexpr Range at_least(double lo) {
  return {lo, std::numeric_limits<double>::infinity()};
}
[[nodiscard]] constexpr Range above(double lo) {
  return {lo, std::numeric_limits<double>::infinity(), true, false};
}

/// One row of a knob table over the target struct T.
template <typename T>
struct Knob {
  std::string_view section;  ///< INI section; "" = a flag with no INI key
  std::string_view key;      ///< INI key
  std::string_view flag;     ///< CLI spelling without "--"; "" = INI only
  std::string_view doc;
  Range range;
  /// Whether canonical() renders the row (null = always): a feature's
  /// knobs render only while the feature is on.
  bool (*rendered)(const T&) = nullptr;
  /// Accepted names of an enum, named bool or restricted string; an enum
  /// field holds the index of its name.
  Names choices;
  char kind = 's';  ///< u(nsigned) f(loat) b(ool) e(num) s(tring) l(ist)
  /// Parses `text` into the row's field: "" on success, else why not.
  std::string (*set)(const Knob&, T&, std::string_view text) = nullptr;
  /// Renders the field: hexfloat doubles when `canonical`, %g otherwise.
  std::string (*get)(const Knob&, const T&, bool canonical) = nullptr;
};

// Typed parse/format primitives behind every row (knobs.cpp).
[[nodiscard]] std::string parse_unsigned(std::string_view text,
                                         std::uint64_t max, const Range& range,
                                         std::uint64_t& out);
[[nodiscard]] std::string parse_double(std::string_view text,
                                       const Range& range, double& out);
[[nodiscard]] std::string parse_choice(std::string_view text, Names choices,
                                       std::size_t& index);
[[nodiscard]] std::string parse_bool(std::string_view text, bool& out);
[[nodiscard]] std::string parse_list(std::string_view text,
                                     std::vector<double>& out);
[[nodiscard]] std::string format_double(double value, bool canonical);

template <typename F>
[[nodiscard]] std::string parse_field(F& field, std::string_view text,
                                      const Range& range, Names choices) {
  std::size_t index = 0;
  if (!choices.empty()) {
    if (std::string error = parse_choice(text, choices, index);
        !error.empty()) {
      return error;
    }
  }
  if constexpr (std::is_enum_v<F> || std::is_same_v<F, bool>) {
    if (!choices.empty()) {
      field = static_cast<F>(index);
      return "";
    }
  }
  if constexpr (std::is_same_v<F, bool>) {
    return parse_bool(text, field);
  } else if constexpr (std::is_same_v<F, std::string>) {
    field = std::string(text);
  } else if constexpr (std::is_same_v<F, std::vector<double>>) {
    return parse_list(text, field);
  } else if constexpr (std::is_floating_point_v<F>) {
    return parse_double(text, range, field);
  } else if constexpr (std::is_unsigned_v<F>) {
    std::uint64_t value = 0;
    std::string error = parse_unsigned(
        text, std::numeric_limits<F>::max(), range, value);
    if (error.empty()) field = static_cast<F>(value);
    return error;
  }
  return "";
}

template <typename F>
[[nodiscard]] std::string format_field(const F& field, bool canonical,
                                       Names choices) {
  if constexpr (std::is_enum_v<F> || std::is_same_v<F, bool>) {
    if (!choices.empty()) {
      return std::string(choices[static_cast<std::size_t>(field)]);
    }
  }
  if constexpr (std::is_same_v<F, bool>) {
    return field ? "1" : "0";
  } else if constexpr (std::is_same_v<F, std::string>) {
    return field;
  } else if constexpr (std::is_same_v<F, std::vector<double>>) {
    std::string out;
    for (const double v : field) {
      if (!out.empty()) out += ' ';
      out += format_double(v, canonical);
    }
    return out;
  } else if constexpr (std::is_floating_point_v<F>) {
    return format_double(field, canonical);
  } else if constexpr (std::is_unsigned_v<F>) {
    return std::to_string(field);
  }
  return "";
}

/// Name tables, one per enum; the enum's value is the name's index.
[[nodiscard]] Names names(TopologyKind*);
[[nodiscard]] Names names(ChannelKind*);
[[nodiscard]] Names names(PropagationKind*);
[[nodiscard]] Names names(sim::AdversaryAttack*);
[[nodiscard]] Names names(SyncKernel*);

/// The name an enum value is spelled by in every front end.
template <typename E>
[[nodiscard]] std::string_view name_of(E value) {
  return names(static_cast<E*>(nullptr))[static_cast<std::size_t>(value)];
}

/// The class a member pointer points into.
template <typename M>
struct MemberOf;
template <typename C, typename F>
struct MemberOf<F C::*> {
  using Class = C;
};

/// One row whose field is reached through the member-pointer path
/// `First, Rest...` (e.g. <&SweepSpec::scenario, &ScenarioConfig::n>).
template <auto First, auto... Rest,
          typename T = typename MemberOf<decltype(First)>::Class>
[[nodiscard]] Knob<T> knob(std::string_view section, std::string_view key,
                           std::string_view flag, Range range,
                           std::string_view doc,
                           std::type_identity_t<bool (*)(const T&)> rendered =
                               nullptr,
                           Names choices = {}) {
  using F = std::remove_cvref_t<
      decltype(((std::declval<T&>() .* First) .* ... .* Rest))>;
  Knob<T> row{section, key, flag, doc, range, rendered, choices};
  if constexpr (std::is_enum_v<F>) {
    if (row.choices.empty()) row.choices = names(static_cast<F*>(nullptr));
  }
  row.kind = !row.choices.empty()                    ? 'e'
             : std::is_same_v<F, bool>               ? 'b'
             : std::is_same_v<F, std::string>        ? 's'
             : std::is_same_v<F, std::vector<double>> ? 'l'
             : std::is_floating_point_v<F>           ? 'f'
                                                     : 'u';
  row.set = [](const Knob<T>& self, T& target, std::string_view text) {
    return parse_field(((target .* First) .* ... .* Rest), text, self.range,
                       self.choices);
  };
  row.get = [](const Knob<T>& self, const T& target, bool canonical) {
    return format_field(((target .* First) .* ... .* Rest), canonical,
                        self.choices);
  };
  return row;
}

// ---------------------------------------------------------------------------
// The tables.

/// Every INI knob of a sweep spec, in canonical order, plus the CLI-only
/// spellings that land in a SweepSpec field (e.g. --mobility=off|rwp).
[[nodiscard]] std::span<const Knob<SweepSpec>> spec_knobs();

/// One row per algorithm name: the factories, the paper bound the CLI
/// reports, and the describe_policy text.
struct Algorithm {
  std::string_view name;
  std::string_view summary;
  bool shows_delta = false;  ///< summary ends in " (delta_est=d)"
  /// Policy-as-data form, when the algorithm has one (runs on the SoA
  /// kernel unless a wrapper applies; see spec_policy).
  core::SyncPolicySpec (*spec)(std::size_t delta_est) = nullptr;
  /// Slotted factory for the algorithms without a spec.
  sim::SyncPolicyFactory (*make)(std::size_t delta_est,
                                 net::ChannelId universe) = nullptr;
  /// Asynchronous factory (Algorithm 4 only).
  sim::AsyncPolicyFactory (*make_async)(std::size_t delta_est) = nullptr;
  double (*bound)(const core::BoundParams&, const net::Network&) = nullptr;
  std::string_view bound_label;

  /// The slotted factory; null when the algorithm is asynchronous.
  [[nodiscard]] sim::SyncPolicyFactory sync_factory(
      std::size_t delta_est, net::ChannelId universe) const;
};
[[nodiscard]] Names algorithm_names();
[[nodiscard]] const Algorithm* find_algorithm(std::string_view name);

/// One-line description of an algorithm name, e.g. "alg3: paper
/// Algorithm 3, constant probability (delta_est=8)". Unknown names come
/// back as "<name> (unknown policy)" so report lines never lie.
[[nodiscard]] std::string describe_policy(std::string_view algorithm,
                                          std::size_t delta_est);

// ---------------------------------------------------------------------------
// What the tables drive.

/// Parses and validates a spec file: known sections and keys only, every
/// value in range, the cross-field rules, and every sweep point applied
/// and checked. On failure returns false with a one-line message naming
/// the key in *error, leaving `spec` unspecified; never aborts.
[[nodiscard]] bool parse_sweep_spec(const util::IniFile& ini, SweepSpec& spec,
                                    std::string* error);

/// Renders a sweep value the way the knob table reads it back: integral
/// values without a decimal point, others via %g. Shared by spec
/// validation and the sweep runners so both apply bit-identical settings.
[[nodiscard]] std::string format_sweep_value(double value);

/// Applies one [scenario] key (the sweep-key API): false with a one-line
/// message in *error on an unknown key or an unparseable or out-of-range
/// value, leaving `config` untouched.
[[nodiscard]] bool apply_scenario_setting(ScenarioConfig& config,
                                          std::string_view key,
                                          std::string_view value,
                                          std::string* error);

/// How a message spells a knob: "[section] key" or "--flag".
enum class Surface { kIni, kCli };

/// The INI presets a spec starts from: SweepSpec{} plus the churn and
/// burst-loss windows (crash 200..2000, down 100..1000, reset on recovery;
/// burst transitions 0.01 / 0.1) used once a section turns them on.
[[nodiscard]] SweepSpec spec_preset();

/// Turns churn and burst loss on or off from crash-prob / burst-loss (a
/// feature that stays off keeps a default plan). Call after the knobs are
/// applied and before check_rules.
void finish_faults(SweepSpec& spec);

/// The rules between knobs, written once: mobility needs unit-disk and
/// position-independent channels; duty cycling and trust need the engine
/// kernel; kernel=soa needs an algorithm with a SyncPolicySpec; loss and
/// burst-loss exclude each other; churn windows, speeds and duty cycles
/// are ordered; and the scenario is buildable (check_scenario).
[[nodiscard]] bool check_rules(const SweepSpec& spec, Surface surface,
                               double loss_probability, std::string* error);

/// The scenario rules build_scenario and the generators CHECK: grid rows
/// divide n, chain needs a line, primary users need a unit disk, ring
/// needs 3 nodes, Watts–Strogatz and Barabási–Albert degrees fit n, and
/// channel-set sizes fit the universe.
[[nodiscard]] bool check_scenario(const ScenarioConfig& config,
                                  Surface surface, std::string* error);

/// The policy-as-data form of the spec's algorithm, if it has one.
[[nodiscard]] std::optional<core::SyncPolicySpec> policy_spec(
    const SweepSpec& spec);

/// How a spec's trials run. The algorithm's factory is wrapped, in this
/// order, by silence termination (terminate_after > 0), the mobility duty
/// cycle (on < period) and the trust gate (trust on), each only when it
/// applies. With no wrapper and a policy_spec(spec), the trials run on
/// that policy table; otherwise on the wrapped policy objects on
/// run_slot_engine. The `kernel` knob plays no part: both loops give
/// identical results.
struct SpecPolicy {
  std::optional<core::SyncPolicySpec> table;
  sim::SyncPolicyFactory objects;  ///< empty when `table` is set
};
[[nodiscard]] SpecPolicy spec_policy(const SweepSpec& spec,
                                     net::ChannelId universe,
                                     std::uint64_t terminate_after = 0);

/// One sweep point, built: its network (a mobile spec's is the epoch
/// provider's union network) and the slot-engine config the spec implies.
struct SweepPoint {
  std::unique_ptr<net::EpochTopologyProvider> provider;
  std::optional<net::Network> static_network;
  sim::SlotEngineConfig engine;

  [[nodiscard]] const net::Network& network() const {
    return provider != nullptr ? provider->union_network() : *static_network;
  }
};

/// Applies the sweep key at `value` to the spec's scenario and builds the
/// point; false with a one-line message if the point is not buildable.
[[nodiscard]] bool build_sweep_point(const SweepSpec& spec, double value,
                                     SweepPoint& point, std::string* error);

/// Runs the spec's trials on `network` as spec_policy says: on its policy
/// table when there is one, else on its policy objects.
[[nodiscard]] SyncTrialStats run_spec_trials(
    const net::Network& network, const SweepSpec& spec,
    const SyncTrialConfig& trial, net::ChannelId universe,
    std::uint64_t terminate_after = 0);

/// Applies every row of `table` whose flag is given and `keep(row)`
/// holds; false with "--flag: why (got 'value')" in *error on the first
/// bad value.
template <typename T, typename Keep>
[[nodiscard]] bool apply_flags(std::span<const Knob<T>> table, T& target,
                               const util::Flags& flags, Keep keep,
                               std::string* error) {
  for (const Knob<T>& row : table) {
    if (row.flag.empty() || !keep(row) || !flags.has(row.flag)) continue;
    const std::string text = flags.get_string(row.flag);
    if (const std::string why = row.set(row, target, text); !why.empty()) {
      *error = "--" + std::string(row.flag) + ": " + why + " (got '" + text +
               "')";
      return false;
    }
  }
  return true;
}

/// One --help line: "  --flag=<values>  doc, range (default X)".
[[nodiscard]] std::string help_line(std::string_view flag, char kind,
                                    Names choices, const Range& range,
                                    std::string_view doc,
                                    const std::string& default_text);
/// Heading printed above a section's flags in --help.
[[nodiscard]] std::string_view help_heading(std::string_view section);

/// The generated --help block for the rows of `table` that have a flag
/// and pass `keep`, defaults read from `preset`.
template <typename T, typename Keep>
[[nodiscard]] std::string help_text(std::span<const Knob<T>> table,
                                    const T& preset, Keep keep) {
  std::string out;
  std::string_view section = "?";
  for (const Knob<T>& row : table) {
    if (row.flag.empty() || !keep(row)) continue;
    if (row.section != section) {
      section = row.section;
      out += '\n';
      out += help_heading(section);
      out += ":\n";
    }
    out += help_line(row.flag, row.kind, row.choices, row.range, row.doc,
                     row.get(row, preset, false));
  }
  return out;
}

/// Prints "<tool>: <message>" on stderr and exits 2 (a usage error).
[[noreturn]] void exit_usage(std::string_view tool, const std::string& message);

/// A front end's whole flag surface: its own rows, read first so an alias
/// among them yields to the spec row it names, and the spec rows `keep`
/// selects. --help prints the generated help (then `footer`) and exits 0;
/// a bad value or an unknown flag exits 2 before anything runs.
template <typename T, typename Keep>
void read_flags(std::string_view tool, std::string_view title,
                const util::Flags& flags, std::span<const Knob<T>> own,
                T& options, SweepSpec& spec, Keep keep,
                std::string_view footer = "") {
  const auto every = [](const Knob<T>&) { return true; };
  if (flags.has("help")) {
    const std::string text = std::string(tool) + " — " + std::string(title) +
                             "\n" + help_text(spec_knobs(), spec, keep) +
                             help_text(own, options, every) +
                             std::string(footer);
    std::fputs(text.c_str(), stdout);
    std::exit(0);
  }
  std::string error;
  if (!apply_flags(own, options, flags, every, &error) ||
      !apply_flags(spec_knobs(), spec, flags, keep, &error)) {
    exit_usage(tool, error);
  }
  for (const std::string& name : flags.unconsumed()) {
    exit_usage(tool, "unknown flag --" + name + " (see --help)");
  }
}

}  // namespace m2hew::runner
