#include "runner/knobs.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "core/adaptive.hpp"
#include "core/algorithms.hpp"
#include "core/baseline_deterministic.hpp"
#include "core/competitors.hpp"
#include "core/duty_cycle.hpp"
#include "core/termination.hpp"
#include "util/ini.hpp"

namespace m2hew::runner {

namespace {

constexpr std::string_view kTopologyNames[] = {
    "line",      "ring",      "grid",           "star",           "clique",
    "erdos-renyi", "unit-disk", "watts-strogatz", "barabasi-albert"};
constexpr std::string_view kChannelNames[] = {"homogeneous", "uniform",
                                              "variable", "chain",
                                              "primary-users"};
constexpr std::string_view kPropagationNames[] = {"full", "random",
                                                  "lowpass"};
constexpr std::string_view kAttackNames[] = {"jam", "byzantine",
                                             "non-responder", "mix"};
constexpr std::string_view kKernelNames[] = {"engine", "soa"};
constexpr std::string_view kMobilityModes[] = {"off", "rwp"};

/// The spec sections in canonical order, with their --help headings.
constexpr std::pair<std::string_view, std::string_view> kSections[] = {
    {"experiment", "Run ([experiment])"},
    {"scenario", "Network ([scenario])"},
    {"faults", "Fault injection ([faults]; all off by default)"},
    {"mobility",
     "Mobility ([mobility]; random waypoint over the unit-disk square)"},
    {"adversary",
     "Adversarial nodes and trust-scored neighbor maintenance ([adversary])"},
};

// Adapters from the core entry points to the Algorithm row signatures.
template <double (*Bound)(const core::BoundParams&)>
double paper(const core::BoundParams& params, const net::Network&) {
  return Bound(params);
}
double no_bound(const core::BoundParams&, const net::Network&) { return 0.0; }
template <sim::SyncPolicyFactory (*Make)()>
sim::SyncPolicyFactory plain(std::size_t, net::ChannelId) {
  return Make();
}

const Algorithm kAlgorithms[] = {
    {"alg1", "paper Algorithm 1, staged", true,
     core::SyncPolicySpec::algorithm1, nullptr, nullptr,
     paper<core::theorem1_slot_bound>, "thm1 slot bound"},
    {"alg2", "paper Algorithm 2, escalating estimate d+=1", false,
     [](std::size_t) { return core::SyncPolicySpec::algorithm2(); }, nullptr,
     nullptr, paper<core::theorem2_slot_bound>, "thm2 slot bound"},
    {"alg2x", "paper Algorithm 2, doubling-estimate ablation", false,
     [](std::size_t) {
       return core::SyncPolicySpec::algorithm2(core::EstimateSchedule::kDouble);
     },
     nullptr, nullptr, paper<core::theorem2_slot_bound>,
     "thm2 slot bound (d+=1 schedule)"},
    {"alg3", "paper Algorithm 3, constant probability", true,
     core::SyncPolicySpec::algorithm3, nullptr, nullptr,
     paper<core::theorem3_slot_bound>, "thm3 slot bound"},
    {"alg4", "paper Algorithm 4, asynchronous frames", true, nullptr, nullptr,
     [](std::size_t d) { return core::make_algorithm4(d); },
     paper<core::theorem9_frame_bound>, "thm9 frame bound"},
    {"baseline", "universal-channel round-robin strawman", false, nullptr,
     [](std::size_t, net::ChannelId universe) {
       return core::make_universal_baseline(universe, 0.5);
     },
     nullptr, no_bound, "(no closed-form bound)"},
    {"deterministic", "TDMA-by-identifier deterministic baseline", false,
     nullptr,
     [](std::size_t, net::ChannelId universe) {
       return core::make_deterministic_baseline(universe);
     },
     nullptr,
     [](const core::BoundParams&, const net::Network& network) {
       return static_cast<double>(network.node_count()) *
              network.universe_size();
     },
     "N x |U| sweep (deterministic guarantee)"},
    {"adaptive", "collision-feedback adaptive-degree extension", false,
     nullptr, [](std::size_t, net::ChannelId) { return core::make_adaptive(); },
     nullptr, no_bound, "(adaptive; no closed-form bound)"},
    {"mcdis", "competitor Mc-Dis prime-pair duty cycling (arXiv:1307.3630)",
     false, nullptr, plain<core::make_mcdis>, nullptr, no_bound,
     "(competitor Mc-Dis; no closed-form bound)"},
    {"rendezvous",
     "competitor deterministic blind rendezvous, jump-stay (arXiv:1401.7313)",
     false, nullptr, plain<core::make_blind_rendezvous>, nullptr, no_bound,
     "(competitor jump-stay; no closed-form bound)"},
    {"consistent-hop",
     "competitor consistent channel hopping (arXiv:2506.18381)", false,
     [](std::size_t) { return core::SyncPolicySpec::consistent_hop(); },
     nullptr, nullptr, no_bound, "(competitor hop; no closed-form bound)"},
};

[[nodiscard]] std::string join(Names names, std::string_view separator) {
  std::string out;
  for (const std::string_view name : names) {
    if (!out.empty()) out += separator;
    out += name;
  }
  return out;
}

[[nodiscard]] std::string describe_range(const Range& range) {
  const std::string lo = format_double(range.lo, false);
  if (!std::isfinite(range.lo)) return "";
  if (!std::isfinite(range.hi)) return (range.lo_open ? "> " : ">= ") + lo;
  return "in " + std::string(range.lo_open ? "(" : "[") + lo + ", " +
         format_double(range.hi, false) + (range.hi_open ? ")" : "]");
}

[[nodiscard]] bool in_range(double value, const Range& range) {
  return (range.lo_open ? value > range.lo : value >= range.lo) &&
         (range.hi_open ? value < range.hi : value <= range.hi);
}

using S = SweepSpec;
using C = ScenarioConfig;
using Churn = sim::ChurnSpec<std::uint64_t>;
using Burst = sim::GilbertElliottSpec;
using Adv = sim::AdversarySpec;
using Trust = core::TrustConfig;
using Mob = MobilitySpec;
using Faults = sim::SlotFaultPlan;

bool never(const S&) { return false; }
std::string accept_unsigned(const Knob<S>& row, S&, std::string_view text) {
  std::uint64_t scratch = 0;
  return parse_unsigned(text, std::numeric_limits<std::uint64_t>::max(),
                        row.range, scratch);
}
std::string render_nothing(const Knob<S>&, const S&, bool) { return ""; }

// One row builder per section: the section, the member path to its
// struct and, where there is one, the feature whose state decides whether
// canonical() renders the row are implied.
template <auto F>
Knob<S> run(std::string_view key, std::string_view flag, Range range,
            std::string_view doc) {
  return knob<F>("experiment", key, flag, range, doc);
}
template <auto F>
Knob<S> scn(std::string_view key, Range range, std::string_view doc) {
  return knob<&S::scenario, F>("scenario", key, key, range, doc);
}
template <auto F>
Knob<S> churn(std::string_view key, std::string_view flag, Range range,
              std::string_view doc) {
  return knob<&S::faults, &Faults::churn, F>(
      "faults", key, flag, range, doc,
      [](const S& s) { return s.faults.churn.enabled(); });
}
template <auto F>
Knob<S> burst(std::string_view key, Range range, std::string_view doc) {
  return knob<&S::faults, &Faults::burst_loss, F>(
      "faults", key, key, range, doc,
      [](const S& s) { return s.faults.burst_loss.enabled; });
}
template <auto F>
Knob<S> mob(std::string_view key, std::string_view flag, Range range,
            std::string_view doc) {
  return knob<&S::mobility, F>("mobility", key, flag, range, doc,
                               [](const S& s) { return s.mobility.enabled; });
}
template <auto F>
Knob<S> adv(std::string_view key, std::string_view flag, Range range,
            std::string_view doc) {
  return knob<&S::faults, &Faults::adversary, F>(
      "adversary", key, flag, range, doc,
      [](const S& s) { return s.faults.adversary.enabled(); });
}
template <auto F>
Knob<S> trust(std::string_view key, Range range, std::string_view doc) {
  return knob<&S::trust, F>("adversary", key, key, range, doc,
                            [](const S& s) { return s.trust.enabled; });
}

}  // namespace

std::span<const Knob<SweepSpec>> spec_knobs() {
  static const std::vector<Knob<S>> table = {
      run<&S::name>("name", "", kAny, "run name (results/<name>.csv)"),
      knob<&S::algorithm>("experiment", "algorithm", "algorithm", kAny,
                          "policy to run", nullptr, algorithm_names()),
      run<&S::delta_est>("delta-est", "delta-est", at_least(1),
                         "degree bound for alg1/alg3/alg4"),
      run<&S::trials>("trials", "trials", at_least(1), "trials per point"),
      run<&S::seed>("seed", "seed", kAny, "root seed"),
      run<&S::max_slots>("max-slots", "max-slots", at_least(1),
                         "slot budget per trial"),
      run<&S::kernel>("kernel", "kernel", kAny,
                      "echoed, picks no loop; soa is refused with trust, "
                      "duty cycling, --terminate-after or an algorithm "
                      "without a policy table"),
      run<&S::sweep_key>("sweep-key", "", kAny, "scenario key to sweep"),
      run<&S::sweep_values>("sweep-values", "", kAny,
                            "values of the sweep key"),
      // Batch-only keys (m2hew_experiment): validated, never rendered.
      {"experiment", "threads", "", "trial fan-out; 0 = all cores", kAny,
       never, {}, 'u', accept_unsigned, render_nothing},
      {"experiment", "plot", "", "ascii plot of mean vs sweep value", kAny,
       never, {}, 'u', accept_unsigned, render_nothing},

      scn<&C::topology>("topology", kAny, "topology generator"),
      scn<&C::n>("n", at_least(1), "nodes"),
      scn<&C::grid_rows>("grid-rows", kAny, "grid rows (0 = 2)"),
      scn<&C::er_edge_probability>("er-p", kUnit,
                                   "Erdos-Renyi edge probability"),
      scn<&C::ud_side>("ud-side", above(0), "unit-disk square side"),
      scn<&C::ud_radius>("ud-radius", above(0), "unit-disk radio range"),
      scn<&C::ws_k>("ws-k", at_least(2), "Watts-Strogatz degree (even)"),
      scn<&C::ws_beta>("ws-beta", kUnit, "Watts-Strogatz rewiring probability"),
      scn<&C::ba_m>("ba-m", at_least(1), "Barabasi-Albert links per node"),
      scn<&C::asymmetric_drop>("asymmetric-drop", kUnit,
                               "drop one arc direction w.p. p"),
      scn<&C::channels>("channels", kAny, "channel assignment"),
      scn<&C::universe>("universe", at_least(1), "channels |U|"),
      scn<&C::set_size>("set-size", at_least(1), "|A(u)|"),
      scn<&C::min_size>("min-size", at_least(1), "variable: min |A(u)|"),
      scn<&C::max_size>("max-size", at_least(1), "variable: max |A(u)|"),
      scn<&C::chain_overlap>("overlap", at_least(1), "chain overlap"),
      scn<&C::pu_count>("pu-count", kAny, "primary users"),
      scn<&C::pu_min_radius>("pu-min-radius", at_least(0),
                             "primary-user min radius"),
      scn<&C::pu_max_radius>("pu-max-radius", at_least(0),
                             "primary-user max radius"),
      scn<&C::require_nonempty_spans>(
          "require-nonempty-spans", kAny,
          "redraw random channels until every edge has a span"),
      scn<&C::propagation>("propagation", kAny, "per-arc channel propagation"),
      scn<&C::prop_keep>("prop-keep", kUnitOpenLo,
                         "random-mask keep probability"),

      churn<&Churn::crash_probability>("crash-prob", "churn-prob", kUnit,
                                       "per-node crash probability"),
      churn<&Churn::earliest_crash>("crash-from", "churn-from", kAny,
                                    "earliest crash slot"),
      churn<&Churn::latest_crash>("crash-until", "churn-until", kAny,
                                  "latest crash slot"),
      churn<&Churn::min_down>("down-min", "churn-down-min", kAny,
                              "min downtime"),
      churn<&Churn::max_down>("down-max", "churn-down-max", kAny,
                              "max downtime"),
      churn<&Churn::reset_policy_on_recovery>(
          "reset-on-recovery", "churn-reset", kAny,
          "reset policy state on recovery"),
      burst<&Burst::loss_bad>(
          "burst-loss", kUnitOpenHi,
          "Gilbert-Elliott bad-state loss (enables bursty loss)"),
      burst<&Burst::p_good_to_bad>("burst-p-gb", kUnit,
                                   "good->bad transition probability"),
      burst<&Burst::p_bad_to_good>("burst-p-bg", kUnit,
                                   "bad->good transition probability"),
      burst<&Burst::loss_good>("burst-loss-good", kUnitOpenHi,
                               "good-state loss probability"),

      knob<&S::mobility, &Mob::enabled>(
          "mobility", "", "mobility", kAny,
          "epoch-based link dynamics (an INI [mobility] section)",
          nullptr, kMobilityModes),
      mob<&Mob::epochs>("epochs", "mobility-epochs", at_least(1),
                        "epochs in the topology schedule"),
      mob<&Mob::epoch_slots>("epoch-slots", "mobility-epoch-slots",
                             at_least(1), "slots per epoch"),
      mob<&Mob::speed_min>("speed-min", "mobility-speed-min", at_least(0),
                           "min node speed, units/epoch"),
      mob<&Mob::speed_max>("speed-max", "mobility-speed-max", at_least(0),
                           "max node speed, units/epoch"),
      mob<&Mob::pause_epochs>("pause-epochs", "mobility-pause", kAny,
                              "max pause epochs at a waypoint"),
      mob<&Mob::duty_on>("duty-on", "duty-on", at_least(1),
                         "slots the policy is on per period"),
      mob<&Mob::duty_period>(
          "duty-period", "duty-period", at_least(1),
          "duty-cycle period, slots (on < period needs kernel engine)"),

      adv<&Adv::fraction>("fraction", "adversary-fraction", kUnit,
                          "fraction of nodes turned adversarial"),
      adv<&Adv::attack>("attack", "adversary-attack", kAny, "attack type"),
      adv<&Adv::byzantine_tx>("byzantine-tx", "adversary-byzantine-tx",
                              kUnitOpenLo,
                              "Byzantine per-slot transmit probability"),
      adv<&Adv::victim_fraction>(
          "victim-fraction", "adversary-victim-fraction", kUnit,
          "fraction of a non-responder's neighbors it ignores"),
      trust<&Trust::enabled>("trust", kAny,
                             "wrap the policy with the trust table"),
      trust<&Trust::threshold>("trust-threshold", kUnitOpenHi,
                               "block below this score"),
      trust<&Trust::reward>("trust-reward", at_least(0),
                            "score per clean admission"),
      trust<&Trust::rate_penalty>("trust-rate-penalty", above(0),
                                  "score cost of an anomaly"),
      trust<&Trust::decay>("trust-decay", kUnitOpenLo,
                           "per-slot pull toward 1"),
      trust<&Trust::rate_window>("trust-rate-window", at_least(1),
                                 "rate window, slots"),
      trust<&Trust::max_per_window>("trust-max-per-window", at_least(1),
                                    "anomaly threshold"),
      trust<&Trust::block_slots>("trust-block-slots", at_least(1),
                                 "blocklist lifetime, slots"),
      trust<&Trust::entry_window>("trust-entry-window", at_least(1),
                                  "last-seen expiry, slots"),
  };
  return table;
}

namespace {

[[nodiscard]] const Knob<S>* find_key(std::string_view section,
                                      std::string_view key) {
  for (const Knob<S>& row : spec_knobs()) {
    if (row.section == section && row.key == key && !key.empty()) return &row;
  }
  return nullptr;
}

/// A knob as the surface spells it: "[section] key" or "--flag".
[[nodiscard]] std::string spell(Surface surface, std::string_view section,
                                std::string_view key) {
  if (surface == Surface::kCli) {
    return "--" + std::string(find_key(section, key)->flag);
  }
  return "[" + std::string(section) + "] " + std::string(key);
}

[[nodiscard]] bool fail(std::string* error, std::string message) {
  *error = std::move(message);
  return false;
}

/// A rule between knobs and the message naming them when it fails.
struct Rule {
  bool violated;
  std::string message;
};

[[nodiscard]] bool first_violation(std::span<const Rule> rules,
                                   std::string* error) {
  for (const Rule& rule : rules) {
    if (rule.violated) return fail(error, rule.message);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Primitives.

std::string parse_unsigned(std::string_view text, std::uint64_t max,
                           const Range& range, std::uint64_t& out) {
  // strtoull would accept "-2" as 2^64 - 2 and skip leading blanks.
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return "expects an unsigned integer";
  }
  const std::string copy(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(copy.c_str(), &end, 10);
  if (*end != '\0') return "expects an unsigned integer";
  if (errno == ERANGE || value > max) {
    return "does not fit (max " + std::to_string(max) + ")";
  }
  if (!in_range(static_cast<double>(value), range)) {
    return "must be " + describe_range(range);
  }
  out = value;
  return "";
}

std::string parse_double(std::string_view text, const Range& range,
                         double& out) {
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || *end != '\0' || std::isnan(value)) {
    return "expects a number";
  }
  if (!in_range(value, range)) return "must be " + describe_range(range);
  out = value;
  return "";
}

std::string parse_choice(std::string_view text, Names choices,
                         std::size_t& index) {
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (choices[i] == text) {
      index = i;
      return "";
    }
  }
  return "expects " + join(choices, " | ");
}

std::string parse_bool(std::string_view text, bool& out) {
  if (text.empty() || text == "1" || text == "true") {
    out = true;
  } else if (text == "0" || text == "false") {
    out = false;
  } else {
    return "expects 0 or 1";
  }
  return "";
}

std::string parse_list(std::string_view text, std::vector<double>& out) {
  out.clear();
  std::istringstream stream{std::string(text)};
  std::string token;
  while (stream >> token) {
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (*end != '\0' || std::isnan(value)) {
      return "element '" + token + "' is not a number";
    }
    out.push_back(value);
  }
  return "";
}

std::string format_double(double value, bool canonical) {
  // Hexfloat keeps the canonical text exact: no decimal rounding can merge
  // or split two distinct specs.
  char buf[48];
  std::snprintf(buf, sizeof(buf), canonical ? "%a" : "%g", value);
  return buf;
}

Names names(TopologyKind*) { return kTopologyNames; }
Names names(ChannelKind*) { return kChannelNames; }
Names names(PropagationKind*) { return kPropagationNames; }
Names names(sim::AdversaryAttack*) { return kAttackNames; }
Names names(SyncKernel*) { return kKernelNames; }

// ---------------------------------------------------------------------------
// Tables.

sim::SyncPolicyFactory Algorithm::sync_factory(std::size_t delta_est,
                                               net::ChannelId universe) const {
  if (spec != nullptr) return core::make_policy_factory(spec(delta_est));
  if (make != nullptr) return make(delta_est, universe);
  return {};
}

Names algorithm_names() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> out;
    for (const Algorithm& a : kAlgorithms) out.push_back(a.name);
    return out;
  }();
  return names;
}

const Algorithm* find_algorithm(std::string_view name) {
  for (const Algorithm& a : kAlgorithms) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

std::string describe_policy(std::string_view algorithm,
                            std::size_t delta_est) {
  const Algorithm* a = find_algorithm(algorithm);
  if (a == nullptr) return std::string(algorithm) + " (unknown policy)";
  std::string text = std::string(a->name) + ": " + std::string(a->summary);
  if (a->shows_delta) {
    text += " (delta_est=" + std::to_string(delta_est) + ")";
  }
  return text;
}

std::string help_line(std::string_view flag, char kind, Names choices,
                      const Range& range, std::string_view doc,
                      const std::string& default_text) {
  const std::string head =
      "  --" + std::string(flag) + "=<" +
      (kind == 'e' ? join(choices, "|") : kind == 'b' ? "0|1" : "value") + ">";
  std::string text(doc);
  if (const std::string bounds = describe_range(range); !bounds.empty()) {
    text += ", " + bounds;
  }
  if (!default_text.empty()) text += " (default " + default_text + ")";
  const std::size_t column = 30;
  return head + (head.size() < column ? std::string(column - head.size(), ' ')
                                      : "\n" + std::string(column, ' ')) +
         text + "\n";
}

std::string_view help_heading(std::string_view section) {
  for (const auto& [name, heading] : kSections) {
    if (name == section) return heading;
  }
  return "Front end";
}

void exit_usage(std::string_view tool, const std::string& message) {
  std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(tool.size()),
               tool.data(), message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Specs.

std::string SweepSpec::canonical() const {
  // The table lists the sections in canonical order, so one pass emits
  // every section header, even of a section none of whose rows render.
  std::string out = "m2hew-sweep-spec v1\n";
  std::string_view section = "experiment";
  for (const Knob<S>& row : spec_knobs()) {
    if (row.section != section) {
      section = row.section;
      out += '[';
      out += section;
      out += "]\n";
    }
    if (row.key.empty() || (row.rendered != nullptr && !row.rendered(*this))) {
      continue;
    }
    out += row.key;
    out += " = ";
    out += row.get(row, *this, true);
    out += '\n';
  }
  return out;
}

std::string format_sweep_value(double value) {
  char buf[32];
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", value);
  }
  return buf;
}

bool apply_scenario_setting(ScenarioConfig& config, std::string_view key,
                            std::string_view value, std::string* error) {
  const Knob<S>* row = find_key("scenario", key);
  if (row == nullptr) {
    return fail(error, "unknown [scenario] key '" + std::string(key) + "'");
  }
  SweepSpec scratch;
  scratch.scenario = config;
  if (const std::string why = row->set(*row, scratch, value); !why.empty()) {
    return fail(error, "[scenario] " + std::string(key) + ": " + why +
                           " (got '" + std::string(value) + "')");
  }
  config = scratch.scenario;
  return true;
}

SweepSpec spec_preset() {
  SweepSpec spec;
  Churn& churn = spec.faults.churn;
  churn.earliest_crash = 200;
  churn.latest_crash = 2000;
  churn.min_down = 100;
  churn.max_down = 1000;
  churn.reset_policy_on_recovery = true;
  spec.faults.burst_loss.p_good_to_bad = 0.01;
  spec.faults.burst_loss.loss_bad = 0.0;  // burst loss stays off
  return spec;
}

void finish_faults(SweepSpec& spec) {
  if (!spec.faults.churn.enabled()) spec.faults.churn = {};
  spec.faults.burst_loss.enabled = spec.faults.burst_loss.loss_bad > 0.0;
  if (!spec.faults.burst_loss.enabled) spec.faults.burst_loss = {};
}

namespace {

/// The scenario of one sweep point: the sweep key applied at `value`, and
/// the scenario rules checked.
[[nodiscard]] bool point_scenario(const SweepSpec& spec, double value,
                                  ScenarioConfig& scenario,
                                  std::string* error) {
  scenario = spec.scenario;
  return (spec.sweep_key.empty() ||
          apply_scenario_setting(scenario, spec.sweep_key,
                                 format_sweep_value(value), error)) &&
         check_scenario(scenario, Surface::kIni, error);
}

}  // namespace

bool parse_sweep_spec(const util::IniFile& ini, SweepSpec& spec,
                      std::string* error) {
  spec = spec_preset();
  for (const std::string& section : ini.section_names()) {
    bool known = false;
    for (const auto& [name, heading] : kSections) known |= section == name;
    if (!known) {
      return fail(error, section.empty()
                             ? "keys outside any section (expected "
                               "[experiment], [scenario], [faults], "
                               "[mobility] or [adversary])"
                             : "unknown section [" + section + "]");
    }
    for (const std::string& key : ini.keys(section)) {
      const Knob<S>* row = find_key(section, key);
      if (row == nullptr) {
        return fail(error, "unknown [" + section + "] key '" + key + "'");
      }
      const std::string text = ini.get(section, key);
      if (const std::string why = row->set(*row, spec, text); !why.empty()) {
        return fail(error, "[" + section + "] " + key + ": " + why +
                               " (got '" + text + "')");
      }
    }
  }
  spec.mobility.enabled = ini.has_section("mobility");
  finish_faults(spec);
  if (spec.sweep_values.empty()) spec.sweep_values.push_back(0.0);

  const Algorithm* algorithm = find_algorithm(spec.algorithm);
  if (algorithm->spec == nullptr && algorithm->make == nullptr) {
    return fail(error, "[experiment] algorithm " + spec.algorithm +
                           " needs the asynchronous engine (use m2hew_cli)");
  }
  if (!check_rules(spec, Surface::kIni, 0.0, error)) return false;
  if (!spec.sweep_key.empty() && spec.sweep_values.size() > 64) {
    return fail(error, "[experiment] sweep-values: at most 64 points per spec");
  }
  // Every sweep point is applied and checked here, so a bad point fails
  // the spec at submission instead of mid-sweep.
  for (const double value : spec.sweep_values) {
    ScenarioConfig point;
    if (!point_scenario(spec, value, point, error)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Rules.

bool check_rules(const SweepSpec& spec, Surface surface,
                 double loss_probability, std::string* error) {
  const auto name = [surface](std::string_view section, std::string_view key) {
    return spell(surface, section, key);
  };
  const std::string kernel = name("experiment", "kernel");
  const std::string duty_cycle = name("mobility", "duty-on") + " < " +
                                 name("mobility", "duty-period") +
                                 " requires ";
  const std::string mobile =
      surface == Surface::kCli ? "--mobility=rwp" : "[mobility]";
  const bool soa = spec.kernel == SyncKernel::kSoa;
  const bool duty = spec.mobility.duty_on != spec.mobility.duty_period;
  const bool mobility = spec.mobility.enabled;
  const ChannelKind channels = spec.scenario.channels;
  const Churn& ch = spec.faults.churn;
  std::vector<std::string_view> with_spec;
  for (const Algorithm& a : kAlgorithms) {
    if (a.spec != nullptr) with_spec.push_back(a.name);
  }
  // The first rule that fails names its knobs; the SoA duty-cycle rule
  // comes before the mobility one so it names every knob involved.
  const Rule rules[] = {
      {soa && !policy_spec(spec).has_value(),
       kernel + "=soa supports only " + join(with_spec, "/") + " (got " +
           name("experiment", "algorithm") + "=" + spec.algorithm + ")"},
      {soa && duty, duty_cycle + kernel +
                        "=engine (duty cycling wraps policy objects, not SoA "
                        "policy tables)"},
      {duty && !mobility, duty_cycle + mobile},
      {spec.trust.enabled && soa,
       name("adversary", "trust") + " requires " + kernel +
           "=engine (trust wraps policy objects, not SoA policy tables)"},
      {mobility && spec.scenario.topology != TopologyKind::kUnitDisk,
       mobile + " requires " + name("scenario", "topology") + "=unit-disk"},
      {mobility && channels != ChannelKind::kHomogeneous &&
           channels != ChannelKind::kUniformRandom &&
           channels != ChannelKind::kVariableRandom,
       mobile + " requires " + name("scenario", "channels") +
           "=homogeneous|uniform|variable"},
      {mobility &&
           (spec.sweep_key == "topology" || spec.sweep_key == "channels"),
       mobile + " cannot sweep the topology/channel kind"},
      {loss_probability > 0.0 && spec.faults.burst_loss.enabled,
       "--loss and " + name("faults", "burst-loss") +
           " are mutually exclusive (i.i.d. vs Gilbert-Elliott loss)"},
      {ch.earliest_crash > ch.latest_crash,
       "need " + name("faults", "crash-from") + " <= " +
           name("faults", "crash-until")},
      {ch.min_down > ch.max_down, "need " + name("faults", "down-min") +
                                      " <= " + name("faults", "down-max")},
      {spec.mobility.speed_min > spec.mobility.speed_max,
       "need " + name("mobility", "speed-min") + " <= " +
           name("mobility", "speed-max")},
      {spec.mobility.duty_on > spec.mobility.duty_period,
       "need " + name("mobility", "duty-on") + " <= " +
           name("mobility", "duty-period")},
  };
  return first_violation(rules, error);
}

bool check_scenario(const ScenarioConfig& c, Surface surface,
                    std::string* error) {
  const auto name = [surface](std::string_view key) {
    return spell(surface, "scenario", key);
  };
  const std::string topology = name("topology") + "=";
  const std::string channels = name("channels") + "=";
  const auto is = [&c](TopologyKind kind) { return c.topology == kind; };
  const auto uses = [&c](ChannelKind kind) { return c.channels == kind; };
  const Rule rules[] = {
      {is(TopologyKind::kGrid) &&
           c.n % (c.grid_rows != 0 ? c.grid_rows : 2) != 0,
       topology + "grid needs " + name("n") + " divisible by " +
           name("grid-rows") + " (0 = 2 rows)"},
      {is(TopologyKind::kRing) && c.n < 3,
       topology + "ring needs " + name("n") + " >= 3"},
      {is(TopologyKind::kWattsStrogatz) && (c.ws_k % 2 != 0 || c.ws_k >= c.n),
       topology + "watts-strogatz needs an even " + name("ws-k") + " < " +
           name("n")},
      {is(TopologyKind::kBarabasiAlbert) && c.ba_m >= c.n,
       topology + "barabasi-albert needs " + name("ba-m") + " < " + name("n")},
      {(uses(ChannelKind::kHomogeneous) || uses(ChannelKind::kUniformRandom)) &&
           c.set_size > c.universe,
       "need " + name("set-size") + " <= " + name("universe")},
      {uses(ChannelKind::kVariableRandom) &&
           (c.min_size > c.max_size || c.max_size > c.universe),
       "need " + name("min-size") + " <= " + name("max-size") + " <= " +
           name("universe")},
      {uses(ChannelKind::kChainOverlap) && !is(TopologyKind::kLine),
       channels + "chain requires " + topology + "line"},
      {uses(ChannelKind::kChainOverlap) && c.chain_overlap > c.set_size,
       "need " + name("overlap") + " <= " + name("set-size")},
      {uses(ChannelKind::kPrimaryUsers) && !is(TopologyKind::kUnitDisk),
       channels + "primary-users requires " + topology + "unit-disk"},
      {uses(ChannelKind::kPrimaryUsers) && c.pu_min_radius > c.pu_max_radius,
       "need " + name("pu-min-radius") + " <= " + name("pu-max-radius")},
  };
  return first_violation(rules, error);
}

std::optional<core::SyncPolicySpec> policy_spec(const SweepSpec& spec) {
  const Algorithm* a = find_algorithm(spec.algorithm);
  if (a == nullptr || a->spec == nullptr) return std::nullopt;
  return a->spec(spec.delta_est);
}

SpecPolicy spec_policy(const SweepSpec& spec, net::ChannelId universe,
                       std::uint64_t terminate_after) {
  sim::SyncPolicyFactory objects =
      find_algorithm(spec.algorithm)->sync_factory(spec.delta_est, universe);
  // Each wrapper is applied and recorded in one place, so no wrapped spec
  // can reach the table.
  bool wrapped = false;
  if (terminate_after > 0) {
    objects = core::with_termination(std::move(objects), terminate_after);
    wrapped = true;
  }
  const MobilitySpec& m = spec.mobility;
  if (m.enabled && m.duty_on < m.duty_period) {
    objects =
        core::with_duty_cycle(std::move(objects), m.duty_on, m.duty_period);
    wrapped = true;
  }
  if (spec.trust.enabled) {
    objects = core::with_trust(std::move(objects), spec.trust);
    wrapped = true;
  }
  if (!wrapped && policy_spec(spec)) return {policy_spec(spec), {}};
  return {std::nullopt, std::move(objects)};
}

bool build_sweep_point(const SweepSpec& spec, double value, SweepPoint& point,
                       std::string* error) {
  ScenarioConfig scenario;
  if (!point_scenario(spec, value, scenario, error)) return false;
  point.engine = {};
  point.engine.max_slots = spec.max_slots;
  point.engine.faults = spec.faults;
  if (spec.mobility.enabled) {
    // Every point rebuilds the trajectories from the same seed, so a swept
    // key (say ud-radius) changes the link sets but not the node paths.
    point.provider =
        build_mobility_provider(scenario, spec.mobility, spec.seed);
    point.engine.topology = point.provider.get();
    point.engine.epoch_length = spec.mobility.epoch_slots;
  } else {
    point.static_network.emplace(build_scenario(scenario, spec.seed));
  }
  return true;
}

SyncTrialStats run_spec_trials(const net::Network& network,
                               const SweepSpec& spec,
                               const SyncTrialConfig& trial,
                               net::ChannelId universe,
                               std::uint64_t terminate_after) {
  const SpecPolicy policy = spec_policy(spec, universe, terminate_after);
  return policy.table ? run_sync_trials(network, *policy.table, trial)
                      : run_sync_trials(network, policy.objects, trial);
}

}  // namespace m2hew::runner
