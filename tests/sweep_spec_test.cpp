// Sweep-spec parsing, canonicalization and cache keying
// (service/sweep_spec.hpp, service/artifact_cache.hpp).
#include "service/sweep_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/duty_cycle.hpp"
#include "core/policy_spec.hpp"
#include "core/termination.hpp"
#include "core/trust.hpp"
#include "service/artifact_cache.hpp"
#include "util/ini.hpp"

namespace m2hew::service {
namespace {

constexpr const char* kBaseSpec = R"(
[experiment]
name = spec_test
algorithm = alg3
delta-est = 4
trials = 5
seed = 9
max-slots = 200000
sweep-key = overlap
sweep-values = 4 2

[scenario]
topology = line
channels = chain
n = 8
set-size = 4
)";

[[nodiscard]] SweepSpec parse_or_die(const std::string& text) {
  const util::IniFile ini = util::IniFile::parse_string(text);
  SweepSpec spec;
  std::string error;
  EXPECT_TRUE(parse_sweep_spec(ini, spec, &error)) << error;
  return spec;
}

[[nodiscard]] std::string parse_error_of(const std::string& text) {
  const util::IniFile ini = util::IniFile::parse_string(text);
  SweepSpec spec;
  std::string error;
  EXPECT_FALSE(parse_sweep_spec(ini, spec, &error));
  return error;
}

TEST(SweepSpec, ParsesEveryField) {
  const SweepSpec spec = parse_or_die(kBaseSpec);
  EXPECT_EQ(spec.name, "spec_test");
  EXPECT_EQ(spec.algorithm, "alg3");
  EXPECT_EQ(spec.delta_est, 4u);
  EXPECT_EQ(spec.trials, 5u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.max_slots, 200000u);
  EXPECT_EQ(spec.kernel, runner::SyncKernel::kEngine);
  EXPECT_EQ(spec.sweep_key, "overlap");
  ASSERT_EQ(spec.sweep_values.size(), 2u);
  EXPECT_EQ(spec.scenario.n, 8u);
  EXPECT_EQ(spec.scenario.channels, runner::ChannelKind::kChainOverlap);
}

TEST(SweepSpec, RejectsBadInput) {
  EXPECT_NE(parse_error_of("[experiment]\nalgorithm = alg9\n"), "");
  EXPECT_NE(parse_error_of("[experiment]\ntrials = 0\n"), "");
  EXPECT_NE(parse_error_of("[experiment]\ntrials = many\n"), "");
  EXPECT_NE(parse_error_of("[experiment]\nkernel = gpu\n"), "");
  EXPECT_NE(parse_error_of("[experiment]\nkernel = soa\n"
                           "algorithm = adaptive\n"),
            "");
  EXPECT_NE(parse_error_of("[experiment]\nbanana = 1\n"), "");
  EXPECT_NE(parse_error_of("[scenario]\nbanana = 1\n"), "");
  EXPECT_NE(parse_error_of("[scenario]\nn = minus-two\n"), "");
  EXPECT_NE(parse_error_of("[scenario]\ntopology = moebius\n"), "");
  EXPECT_NE(parse_error_of("[faults]\nbanana = 1\n"), "");
  EXPECT_NE(parse_error_of("[experimnet]\nname = typo\n"), "");
  EXPECT_NE(parse_error_of("name = outside-any-section\n"), "");
  // Sweep points are validated at parse time, not mid-run.
  EXPECT_NE(parse_error_of("[experiment]\nsweep-key = banana\n"
                           "sweep-values = 1 2\n"),
            "");
  // Values the engine CHECKs would abort on fail here, naming the key.
  const auto names = [](const std::string& text, const char* key) {
    const std::string error = parse_error_of(text);
    EXPECT_NE(error.find(key), std::string::npos) << text << " -> " << error;
  };
  names("[faults]\ncrash-prob = 0.2\ndown-min = 500\ndown-max = 100\n",
        "down-min");
  names("[faults]\ncrash-prob = 0.2\ncrash-from = 900\n"
        "crash-until = 100\n",
        "crash-from");
  names("[faults]\nburst-loss = 1\n", "burst-loss");
  names("[faults]\nburst-loss = 0.5\nburst-loss-good = 1\n",
        "burst-loss-good");
  names("[scenario]\nn = 0\n", "n");
  names("[scenario]\nn = -2\n", "n");
  names("[scenario]\nn = 4294967296\n", "n");
  names("[experiment]\ntrials = -3\n", "trials");
  names("[experiment]\nthreads = two\n", "threads");
  names("[experiment]\ndelta-est = 0\n", "delta-est");
  names("[experiment]\nalgorithm = alg4\n", "algorithm");
  names("[scenario]\ntopology = ring\nn = 2\n", "n");
  names("[scenario]\nrequire-nonempty-spans = yes\n",
        "require-nonempty-spans");
  names("[scenario]\nprop-keep = 0\n", "prop-keep");
  names("[scenario]\nuniverse = 3\nset-size = 4\n", "set-size");
  names("[experiment]\nsweep-key = n\nsweep-values = 4 0\n", "n");
}

TEST(SweepSpec, CanonicalizationIgnoresFormattingOnly) {
  const SweepSpec base = parse_or_die(kBaseSpec);

  // Reordered keys and sections, comments, blank lines, crazy whitespace.
  const SweepSpec shuffled = parse_or_die(R"(
; a comment
[scenario]
set-size  =   4
n=8
channels = chain
topology = line

# comment between sections
[experiment]
sweep-values =    4     2
sweep-key = overlap
max-slots = 200000
seed=9
trials = 5
delta-est = 4
algorithm = alg3
name = spec_test
)");
  EXPECT_EQ(base.canonical(), shuffled.canonical());
  EXPECT_EQ(scenario_hash(base), scenario_hash(shuffled));

  // Writing a default out explicitly is the same spec.
  const SweepSpec with_default =
      parse_or_die(std::string(kBaseSpec) + "universe = 8\n");
  EXPECT_EQ(scenario_hash(base), scenario_hash(with_default));
}

TEST(SweepSpec, HashCoversEveryEffectiveParameter) {
  const std::uint64_t base = scenario_hash(parse_or_die(kBaseSpec));
  const auto changed = [&](const std::string& extra) {
    return scenario_hash(parse_or_die(std::string(kBaseSpec) + extra));
  };
  EXPECT_NE(base, changed("universe = 16\n"));
  EXPECT_NE(base, changed("[experiment]\nseed = 10\n"));
  EXPECT_NE(base, changed("[experiment]\ntrials = 6\n"));
  EXPECT_NE(base, changed("[experiment]\nkernel = soa\n"));
  EXPECT_NE(base, changed("[experiment]\nname = other\n"));
  EXPECT_NE(base, changed("[faults]\ncrash-prob = 0.2\n"));
  // ini parse keeps the LAST assignment of a repeated key, so the
  // appended [experiment]/[scenario] lines above genuinely took effect.
}

TEST(SweepSpec, HashCoversBinaryVersion) {
  const SweepSpec spec = parse_or_die(kBaseSpec);
  const std::uint64_t before = scenario_hash(spec);
  ::setenv("M2HEW_BINARY_VERSION", "spec-test-fake-version", 1);
  const std::uint64_t after = scenario_hash(spec);
  ::unsetenv("M2HEW_BINARY_VERSION");
  EXPECT_NE(before, after);
  EXPECT_EQ(scenario_hash(spec), before);  // env restored -> key restored
}

constexpr const char* kMobileSpec = R"(
[experiment]
name = mobile_test
algorithm = alg3
delta-est = 8
trials = 4
seed = 3
max-slots = 2000
sweep-key = ud-radius
sweep-values = 0.3 0.4

[scenario]
topology = unit-disk
channels = uniform
n = 12
universe = 8
set-size = 4

[mobility]
epochs = 4
epoch-slots = 100
speed-min = 0.01
speed-max = 0.05
pause-epochs = 1
duty-on = 1
duty-period = 2
)";

TEST(SweepSpec, MobilityParsesAndCanonicalizes) {
  const SweepSpec spec = parse_or_die(kMobileSpec);
  EXPECT_TRUE(spec.mobility.enabled);
  EXPECT_EQ(spec.mobility.epochs, 4u);
  EXPECT_EQ(spec.mobility.epoch_slots, 100u);
  EXPECT_DOUBLE_EQ(spec.mobility.speed_min, 0.01);
  EXPECT_DOUBLE_EQ(spec.mobility.speed_max, 0.05);
  EXPECT_EQ(spec.mobility.pause_epochs, 1u);
  EXPECT_EQ(spec.mobility.duty_on, 1u);
  EXPECT_EQ(spec.mobility.duty_period, 2u);

  // The canonical form renders the mobility block, so mobile and static
  // specs can never alias in the artifact cache; a section written in a
  // different key order canonicalizes identically.
  EXPECT_NE(spec.canonical().find("[mobility]"), std::string::npos);
  EXPECT_NE(spec.canonical().find("epoch-slots = 100"), std::string::npos);
  const SweepSpec reordered = parse_or_die(R"(
[mobility]
duty-period = 2
duty-on = 1
pause-epochs = 1
speed-max = 0.05
speed-min = 0.01
epoch-slots = 100
epochs = 4

[scenario]
set-size = 4
universe = 8
n = 12
channels = uniform
topology = unit-disk

[experiment]
sweep-values = 0.3 0.4
sweep-key = ud-radius
max-slots = 2000
seed = 3
trials = 4
delta-est = 8
algorithm = alg3
name = mobile_test
)");
  EXPECT_EQ(spec.canonical(), reordered.canonical());
  EXPECT_EQ(scenario_hash(spec), scenario_hash(reordered));
}

TEST(SweepSpec, MobilityAffectsTheCacheKey) {
  const std::uint64_t base = scenario_hash(parse_or_die(kMobileSpec));
  const auto changed = [&](const std::string& extra) {
    return scenario_hash(parse_or_die(std::string(kMobileSpec) + extra));
  };
  EXPECT_NE(base, changed("[mobility]\nspeed-max = 0.1\n"));
  EXPECT_NE(base, changed("[mobility]\nepochs = 8\n"));
  EXPECT_NE(base, changed("[mobility]\nduty-period = 4\n"));
}

TEST(SweepSpec, MobilityValidation) {
  // The provider needs the unit-disk square and position-independent
  // channels; duty cycling wraps policy objects so it needs the engine
  // kernel; topology/channel-kind sweeps make no sense while mobility
  // regenerates the link set.
  EXPECT_NE(parse_error_of("[scenario]\ntopology = line\n"
                           "[mobility]\nepochs = 2\n"),
            "");
  EXPECT_NE(parse_error_of("[scenario]\ntopology = unit-disk\n"
                           "channels = chain\n"
                           "[mobility]\nepochs = 2\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kMobileSpec) +
                           "[experiment]\nkernel = soa\n"),
            "");
  // Full-duty soa IS allowed: the restriction is only the duty wrapper.
  const SweepSpec soa_full_duty = parse_or_die(
      std::string(kMobileSpec) + "[experiment]\nkernel = soa\n"
                                 "[mobility]\nduty-period = 1\n");
  EXPECT_EQ(soa_full_duty.kernel, runner::SyncKernel::kSoa);
  // Bad mobility ranges fail at submission.
  EXPECT_NE(parse_error_of(std::string(kMobileSpec) +
                           "[mobility]\nepoch-slots = 0\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kMobileSpec) +
                           "[mobility]\nspeed-min = 0.2\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kMobileSpec) +
                           "[mobility]\nduty-on = 3\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kMobileSpec) +
                           "[mobility]\nbanana = 1\n"),
            "");
}

constexpr const char* kAdversarySpec = R"(
[experiment]
name = adversary_test
algorithm = alg3
delta-est = 24
trials = 4
seed = 7
max-slots = 4000
sweep-key = ud-radius
sweep-values = 0.4 0.5

[scenario]
topology = unit-disk
channels = uniform
n = 12
universe = 6
set-size = 6

[adversary]
fraction = 0.25
attack = byzantine
byzantine-tx = 0.9
victim-fraction = 0.5
trust = 1
trust-threshold = 0.3
trust-reward = 0.02
trust-rate-penalty = 0.35
trust-decay = 0.999
trust-rate-window = 128
trust-max-per-window = 6
trust-block-slots = 4000
trust-entry-window = 8000
)";

TEST(SweepSpec, AdversaryParsesAndCanonicalizes) {
  const SweepSpec spec = parse_or_die(kAdversarySpec);
  EXPECT_DOUBLE_EQ(spec.faults.adversary.fraction, 0.25);
  EXPECT_EQ(spec.faults.adversary.attack, sim::AdversaryAttack::kByzantine);
  EXPECT_DOUBLE_EQ(spec.faults.adversary.byzantine_tx, 0.9);
  EXPECT_DOUBLE_EQ(spec.faults.adversary.victim_fraction, 0.5);
  EXPECT_TRUE(spec.trust.enabled);
  EXPECT_DOUBLE_EQ(spec.trust.threshold, 0.3);
  EXPECT_DOUBLE_EQ(spec.trust.reward, 0.02);
  EXPECT_DOUBLE_EQ(spec.trust.rate_penalty, 0.35);
  EXPECT_DOUBLE_EQ(spec.trust.decay, 0.999);
  EXPECT_EQ(spec.trust.rate_window, 128u);
  EXPECT_EQ(spec.trust.max_per_window, 6u);
  EXPECT_EQ(spec.trust.block_slots, 4000u);
  EXPECT_EQ(spec.trust.entry_window, 8000u);

  // The canonical form renders the adversary block, so attacked and clean
  // specs can never alias in the artifact cache; a section written in a
  // different key order canonicalizes identically.
  EXPECT_NE(spec.canonical().find("[adversary]"), std::string::npos);
  EXPECT_NE(spec.canonical().find("attack = byzantine"), std::string::npos);
  EXPECT_NE(spec.canonical().find("trust = 1"), std::string::npos);
  const SweepSpec reordered = parse_or_die(R"(
[adversary]
trust-entry-window = 8000
trust-block-slots = 4000
trust-max-per-window = 6
trust-rate-window = 128
trust-decay = 0.999
trust-rate-penalty = 0.35
trust-reward = 0.02
trust-threshold = 0.3
trust = 1
victim-fraction = 0.5
byzantine-tx = 0.9
attack = byzantine
fraction = 0.25

[scenario]
set-size = 6
universe = 6
n = 12
channels = uniform
topology = unit-disk

[experiment]
sweep-values = 0.4 0.5
sweep-key = ud-radius
max-slots = 4000
seed = 7
trials = 4
delta-est = 24
algorithm = alg3
name = adversary_test
)");
  EXPECT_EQ(spec.canonical(), reordered.canonical());
  EXPECT_EQ(scenario_hash(spec), scenario_hash(reordered));
}

TEST(SweepSpec, AdversaryAffectsTheCacheKey) {
  const std::uint64_t base = scenario_hash(parse_or_die(kAdversarySpec));
  const auto changed = [&](const std::string& extra) {
    return scenario_hash(parse_or_die(std::string(kAdversarySpec) + extra));
  };
  EXPECT_NE(base, changed("[adversary]\nfraction = 0.4\n"));
  EXPECT_NE(base, changed("[adversary]\nattack = mix\n"));
  EXPECT_NE(base, changed("[adversary]\nbyzantine-tx = 0.5\n"));
  EXPECT_NE(base, changed("[adversary]\ntrust = 0\n"));
  EXPECT_NE(base, changed("[adversary]\ntrust-threshold = 0.4\n"));
}

TEST(SweepSpec, AdversaryValidation) {
  // Unknown keys and malformed values must come back as recoverable
  // diagnostics — a daemon-submitted spec must never reach the aborting
  // CHECKs inside validate_fault_plan / validate_trust_config.
  EXPECT_NE(parse_error_of("[adversary]\nbanana = 1\n"), "");
  EXPECT_NE(parse_error_of("[adversary]\nfraction = lots\n"), "");
  EXPECT_NE(parse_error_of("[adversary]\nfraction = 1.5\n"), "");
  EXPECT_NE(parse_error_of("[adversary]\nattack = meteor\n"), "");
  EXPECT_NE(parse_error_of("[adversary]\nfraction = 0.2\n"
                           "byzantine-tx = 0\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kAdversarySpec) +
                           "[adversary]\ntrust-decay = 0\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kAdversarySpec) +
                           "[adversary]\ntrust-rate-window = 0\n"),
            "");
  // The trust wrapper needs per-node policy objects, which only the engine
  // kernel materializes.
  EXPECT_NE(parse_error_of(std::string(kAdversarySpec) +
                           "[experiment]\nkernel = soa\n"),
            "");
  // Untrusted adversaries on the SoA kernel ARE allowed: the adversary
  // model itself is honored by every execution path.
  const SweepSpec soa_untrusted = parse_or_die(
      std::string(kAdversarySpec) + "[experiment]\nkernel = soa\n"
                                    "[adversary]\ntrust = 0\n");
  EXPECT_EQ(soa_untrusted.kernel, runner::SyncKernel::kSoa);
  EXPECT_DOUBLE_EQ(soa_untrusted.faults.adversary.fraction, 0.25);
}

// Byte-exact canonical text of a spec that sets every section, with churn,
// burst loss, mobility, adversaries and trust all on. It feeds
// scenario_hash, so any change to it moves every existing cache key.
TEST(SweepSpec, CanonicalGolden) {
  const SweepSpec spec = parse_or_die(
    "[experiment]\n"
    "name = golden\n"
    "algorithm = alg2x\n"
    "delta-est = 12\n"
    "trials = 7\n"
    "seed = 42\n"
    "max-slots = 3000\n"
    "kernel = engine\n"
    "sweep-key = ud-radius\n"
    "sweep-values = 0.3 0.45\n"
    "\n"
    "[scenario]\n"
    "topology = unit-disk\n"
    "n = 20\n"
    "grid-rows = 4\n"
    "er-p = 0.25\n"
    "ud-side = 1.5\n"
    "ud-radius = 0.5\n"
    "ws-k = 6\n"
    "ws-beta = 0.3\n"
    "ba-m = 3\n"
    "asymmetric-drop = 0.1\n"
    "channels = uniform\n"
    "universe = 9\n"
    "set-size = 5\n"
    "min-size = 3\n"
    "max-size = 7\n"
    "overlap = 3\n"
    "pu-count = 5\n"
    "pu-min-radius = 0.1\n"
    "pu-max-radius = 0.3\n"
    "require-nonempty-spans = 0\n"
    "propagation = random\n"
    "prop-keep = 0.8\n"
    "\n"
    "[faults]\n"
    "crash-prob = 0.2\n"
    "crash-from = 10\n"
    "crash-until = 900\n"
    "down-min = 20\n"
    "down-max = 300\n"
    "reset-on-recovery = 0\n"
    "burst-loss = 0.7\n"
    "burst-p-gb = 0.03\n"
    "burst-p-bg = 0.2\n"
    "burst-loss-good = 0.05\n"
    "\n"
    "[mobility]\n"
    "epochs = 6\n"
    "epoch-slots = 250\n"
    "speed-min = 0.01\n"
    "speed-max = 0.04\n"
    "pause-epochs = 2\n"
    "duty-on = 2\n"
    "duty-period = 3\n"
    "\n"
    "[adversary]\n"
    "fraction = 0.15\n"
    "attack = non-responder\n"
    "byzantine-tx = 0.6\n"
    "victim-fraction = 0.4\n"
    "trust = 1\n"
    "trust-threshold = 0.25\n"
    "trust-reward = 0.03\n"
    "trust-rate-penalty = 0.4\n"
    "trust-decay = 0.995\n"
    "trust-rate-window = 100\n"
    "trust-max-per-window = 5\n"
    "trust-block-slots = 1500\n"
    "trust-entry-window = 9000\n");
  EXPECT_EQ(spec.canonical(),
    "m2hew-sweep-spec v1\n"
    "name = golden\n"
    "algorithm = alg2x\n"
    "delta-est = 12\n"
    "trials = 7\n"
    "seed = 42\n"
    "max-slots = 3000\n"
    "kernel = engine\n"
    "sweep-key = ud-radius\n"
    "sweep-values = 0x1.3333333333333p-2 0x1.ccccccccccccdp-2\n"
    "[scenario]\n"
    "topology = unit-disk\n"
    "n = 20\n"
    "grid-rows = 4\n"
    "er-p = 0x1p-2\n"
    "ud-side = 0x1.8p+0\n"
    "ud-radius = 0x1p-1\n"
    "ws-k = 6\n"
    "ws-beta = 0x1.3333333333333p-2\n"
    "ba-m = 3\n"
    "asymmetric-drop = 0x1.999999999999ap-4\n"
    "channels = uniform\n"
    "universe = 9\n"
    "set-size = 5\n"
    "min-size = 3\n"
    "max-size = 7\n"
    "overlap = 3\n"
    "pu-count = 5\n"
    "pu-min-radius = 0x1.999999999999ap-4\n"
    "pu-max-radius = 0x1.3333333333333p-2\n"
    "require-nonempty-spans = 0\n"
    "propagation = random\n"
    "prop-keep = 0x1.999999999999ap-1\n"
    "[faults]\n"
    "crash-prob = 0x1.999999999999ap-3\n"
    "crash-from = 10\n"
    "crash-until = 900\n"
    "down-min = 20\n"
    "down-max = 300\n"
    "reset-on-recovery = 0\n"
    "burst-loss = 0x1.6666666666666p-1\n"
    "burst-p-gb = 0x1.eb851eb851eb8p-6\n"
    "burst-p-bg = 0x1.999999999999ap-3\n"
    "burst-loss-good = 0x1.999999999999ap-5\n"
    "[mobility]\n"
    "epochs = 6\n"
    "epoch-slots = 250\n"
    "speed-min = 0x1.47ae147ae147bp-7\n"
    "speed-max = 0x1.47ae147ae147bp-5\n"
    "pause-epochs = 2\n"
    "duty-on = 2\n"
    "duty-period = 3\n"
    "[adversary]\n"
    "fraction = 0x1.3333333333333p-3\n"
    "attack = non-responder\n"
    "byzantine-tx = 0x1.3333333333333p-1\n"
    "victim-fraction = 0x1.999999999999ap-2\n"
    "trust = 1\n"
    "trust-threshold = 0x1p-2\n"
    "trust-reward = 0x1.eb851eb851eb8p-6\n"
    "trust-rate-penalty = 0x1.999999999999ap-2\n"
    "trust-decay = 0x1.fd70a3d70a3d7p-1\n"
    "trust-rate-window = 100\n"
    "trust-max-per-window = 5\n"
    "trust-block-slots = 1500\n"
    "trust-entry-window = 9000\n");
}

// Every registered INI key: a spec setting it to a non-default in-range
// value round-trips parse -> canonical -> parse -> canonical unchanged,
// and a value just outside its range is rejected naming the key.
TEST(KnobTable, EveryKeyRoundTripsAndRejectsOutOfRange) {
  using runner::Knob;
  // Turns on the row's feature, so its row is rendered and its rules hold.
  const auto context = [](std::string_view section) -> std::string {
    if (section == "faults") {
      return "[faults]\ncrash-prob = 0.3\nburst-loss = 0.5\n";
    }
    if (section == "mobility") {
      return "[scenario]\ntopology = unit-disk\nchannels = uniform\n"
             "[mobility]\nepochs = 4\nduty-period = 8\n";
    }
    if (section == "adversary") {
      return "[adversary]\nfraction = 0.2\ntrust = 1\n";
    }
    return "";
  };
  const auto format = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };
  std::size_t keys = 0;
  for (const Knob<SweepSpec>& row : runner::spec_knobs()) {
    if (row.key.empty()) continue;  // a CLI-only spelling
    ++keys;
    const std::string key(row.key);
    const std::string base = context(row.section);
    const std::string line =
        "[" + std::string(row.section) + "]\n" + key + " = ";
    const std::string before = parse_or_die(base).canonical();

    // Candidate in-range values; the first that parses must change the
    // canonical text (rows the canonical form never renders excepted).
    std::vector<std::string> candidates;
    const runner::Range& r = row.range;
    if (row.kind == 'e') {
      for (const std::string_view name : row.choices) {
        candidates.emplace_back(name);
      }
    } else if (row.kind == 'b') {
      candidates = {"0", "1"};
    } else if (row.kind == 's') {
      candidates = {"er-p"};
    } else if (row.kind == 'l') {
      candidates = {"0.25 0.5"};
    } else if (std::isfinite(r.hi)) {
      candidates = {format((r.lo + r.hi) / 2), format((r.lo + 3 * r.hi) / 4)};
    } else {
      const double lo = std::isfinite(r.lo) ? r.lo : 0.0;
      for (const double step : {1.0, 2.0, 7.0, 5000.0}) {
        candidates.push_back(row.kind == 'u' ? format(lo + step)
                                             : format(lo + step / 64));
      }
    }
    bool changed = false;
    for (const std::string& value : candidates) {
      const util::IniFile ini =
          util::IniFile::parse_string(base + line + value + "\n");
      SweepSpec spec;
      std::string error;
      if (!parse_sweep_spec(ini, spec, &error)) continue;
      const std::string text = spec.canonical();
      if (text == before) continue;
      changed = true;
      // canonical -> parse -> canonical: the rendered text reads back as
      // a spec once the version line becomes [experiment] and the empty
      // header of a feature that is off is dropped (in a spec file an
      // empty [mobility] section turns mobility on).
      std::string reread = "[experiment]\n";
      std::istringstream lines(text.substr(text.find('\n') + 1));
      std::string pending;
      for (std::string l; std::getline(lines, l);) {
        if (l.starts_with("[")) {
          pending = l + "\n";
        } else {
          reread += pending + l + "\n";
          pending.clear();
        }
      }
      EXPECT_EQ(parse_or_die(reread).canonical(), text)
          << key << " = " << value;
      break;
    }
    // (threads and plot are validated but never rendered.)
    EXPECT_TRUE(changed || row.get(row, SweepSpec{}, true).empty()) << key;

    // Just outside the range (or not a value at all).
    std::string outside;
    if (row.kind == 'u') {
      outside = r.lo > 0 ? std::to_string(static_cast<long long>(r.lo) - 1)
                         : "-1";
    } else if (row.kind == 'f') {
      outside = std::isfinite(r.lo) ? format(r.lo_open ? r.lo : r.lo - 0.001)
                                    : format(r.hi_open ? r.hi : r.hi + 0.001);
    } else if (row.kind == 'b') {
      outside = "2";
    } else if (row.kind == 'e') {
      outside = "no-such-name";
    } else if (row.kind == 'l') {
      outside = "1 x";
    } else {
      continue;  // free text
    }
    const std::string error = parse_error_of(base + line + outside + "\n");
    EXPECT_NE(error.find(key), std::string::npos)
        << key << " = " << outside << " -> " << error;
  }
  EXPECT_GE(keys, 60u);
}

[[nodiscard]] bool has_table(const SweepSpec& spec,
                             std::uint64_t terminate_after = 0) {
  return runner::spec_policy(spec, spec.scenario.universe, terminate_after)
      .table.has_value();
}

// Which slotted loop a spec runs on follows its policy, never the kernel
// knob: an algorithm with a policy table and no object wrapper runs on the
// table, everything else on policy objects.
TEST(SpecRouting, TablePolicyFollowsThePolicyNotTheKnob) {
  for (const char* algorithm : {"alg1", "alg2", "alg2x", "alg3",
                                "consistent-hop"}) {
    for (const char* kernel : {"engine", "soa"}) {
      const SweepSpec spec = parse_or_die(
          std::string(kBaseSpec) + "[experiment]\nalgorithm = " + algorithm +
          "\nkernel = " + kernel + "\n");
      EXPECT_TRUE(has_table(spec)) << algorithm;
      EXPECT_FALSE(has_table(spec, 50)) << algorithm;
    }
  }
  for (const char* algorithm : {"baseline", "adaptive", "mcdis"}) {
    EXPECT_FALSE(has_table(parse_or_die(std::string(kBaseSpec) +
                                        "[experiment]\nalgorithm = " +
                                        algorithm + "\n")))
        << algorithm;
  }
  EXPECT_FALSE(has_table(parse_or_die(kAdversarySpec)));
  EXPECT_FALSE(has_table(parse_or_die(kMobileSpec)));
  // Mobility at full duty wraps nothing.
  EXPECT_TRUE(has_table(parse_or_die(std::string(kMobileSpec) +
                                     "[mobility]\nduty-period = 1\n")));
}

[[nodiscard]] bool same_samples(const util::Samples& a,
                                const util::Samples& b) {
  const auto va = a.values();
  const auto vb = b.values();
  return std::equal(va.begin(), va.end(), vb.begin(), vb.end());
}

[[nodiscard]] bool same_stats(const runner::SyncTrialStats& a,
                              const runner::SyncTrialStats& b) {
  const runner::RobustnessStats& ra = a.robustness;
  const runner::RobustnessStats& rb = b.robustness;
  return a.trials == b.trials && a.completed == b.completed &&
         same_samples(a.completion_slots, b.completion_slots) &&
         same_samples(ra.surviving_recall, rb.surviving_recall) &&
         same_samples(ra.ghost_entries, rb.ghost_entries) &&
         same_samples(ra.precision_under_attack, rb.precision_under_attack) &&
         same_samples(ra.isolation_times, rb.isolation_times) &&
         ra.fake_entries == rb.fake_entries &&
         ra.isolated_fakes == rb.isolated_fakes &&
         a.encounters.contacts == b.encounters.contacts &&
         a.encounters.detected == b.encounters.detected;
}

// The spec's bare policy objects, built without spec_policy.
[[nodiscard]] sim::SyncPolicyFactory bare_objects(const SweepSpec& spec) {
  return core::make_policy_factory(*runner::policy_spec(spec));
}

// A wrapped spec must run its wrapper: run_spec_trials equals `objects`,
// the wrapped policy objects built by hand, and differs from the same spec
// unwrapped (which runs on the table), so routing that dropped the
// wrapper fails here.
void expect_runs_its_wrapper(const SweepSpec& wrapped,
                             const SweepSpec& unwrapped,
                             const sim::SyncPolicyFactory& objects,
                             std::uint64_t terminate_after) {
  runner::SweepPoint point;
  std::string error;
  ASSERT_TRUE(runner::build_sweep_point(wrapped, wrapped.sweep_values[0],
                                        point, &error))
      << error;
  runner::SyncTrialConfig trial;
  trial.trials = wrapped.trials;
  trial.seed = wrapped.seed;
  trial.threads = 2;
  trial.engine = point.engine;
  const net::Network& network = point.network();
  const net::ChannelId universe = wrapped.scenario.universe;

  ASSERT_FALSE(has_table(wrapped, terminate_after));
  ASSERT_TRUE(has_table(unwrapped));
  const runner::SyncTrialStats routed = runner::run_spec_trials(
      network, wrapped, trial, universe, terminate_after);
  const runner::SyncTrialStats expected =
      runner::run_sync_trials(network, objects, trial);
  const runner::SyncTrialStats bare =
      runner::run_spec_trials(network, unwrapped, trial, universe);
  EXPECT_TRUE(same_stats(routed, expected));
  EXPECT_FALSE(same_stats(routed, bare));
}

TEST(SpecRouting, TrustedSpecRunsOnPolicyObjects) {
  const SweepSpec wrapped = parse_or_die(std::string(kAdversarySpec) +
                                         "[experiment]\nkernel = engine\n");
  SweepSpec unwrapped = wrapped;
  unwrapped.trust.enabled = false;
  expect_runs_its_wrapper(
      wrapped, unwrapped,
      core::with_trust(bare_objects(wrapped), wrapped.trust), 0);
}

TEST(SpecRouting, DutyCycledSpecRunsOnPolicyObjects) {
  const SweepSpec wrapped = parse_or_die(kMobileSpec);
  SweepSpec unwrapped = wrapped;
  unwrapped.mobility.duty_period = 1;
  const auto& m = wrapped.mobility;
  expect_runs_its_wrapper(
      wrapped, unwrapped,
      core::with_duty_cycle(bare_objects(wrapped), m.duty_on, m.duty_period),
      0);
}

TEST(SpecRouting, TerminatingSpecRunsOnPolicyObjects) {
  const SweepSpec spec = parse_or_die(kBaseSpec);
  expect_runs_its_wrapper(
      spec, spec, core::with_termination(bare_objects(spec), 20), 20);
}

TEST(SweepSpec, FormatSweepValue) {
  EXPECT_EQ(format_sweep_value(4.0), "4");
  EXPECT_EQ(format_sweep_value(0.25), "0.25");
  EXPECT_EQ(format_sweep_value(-3.0), "-3");
}

TEST(ArtifactCache, HitMissStoreAndInvalidation) {
  char tmpl[] = "/tmp/m2hew_cache_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = std::string(tmpl) + "/cache";
  const ArtifactCache cache(dir);

  const SweepSpec spec = parse_or_die(kBaseSpec);
  const std::string key = scenario_hash_hex(spec);
  EXPECT_FALSE(cache.contains(key));  // cold cache: miss

  ASSERT_TRUE(cache.store(key, "{\"bench\": \"spec_test\"}\n"));
  EXPECT_TRUE(cache.contains(key));  // warm cache: hit
  {
    std::ifstream in(cache.path_for(key));
    std::string content;
    std::getline(in, content);
    EXPECT_EQ(content, "{\"bench\": \"spec_test\"}");
  }

  // A different effective spec — and the same spec under a different
  // binary version — address different entries (natural invalidation).
  const SweepSpec other =
      parse_or_die(std::string(kBaseSpec) + "[experiment]\nseed = 10\n");
  EXPECT_FALSE(cache.contains(scenario_hash_hex(other)));
  ::setenv("M2HEW_BINARY_VERSION", "rebuilt", 1);
  EXPECT_FALSE(cache.contains(scenario_hash_hex(spec)));
  ::unsetenv("M2HEW_BINARY_VERSION");
  EXPECT_TRUE(cache.contains(scenario_hash_hex(spec)));
}

}  // namespace
}  // namespace m2hew::service
