// The knob table's one-key [scenario] entry (the sweep-key API) and the
// [faults]/[mobility]/[adversary] sections as parse_sweep_spec reads them
// (runner/knobs.hpp).
#include <gtest/gtest.h>

#include <string>

#include "core/trust.hpp"
#include "runner/knobs.hpp"
#include "sim/fault_plan.hpp"
#include "util/ini.hpp"

namespace m2hew::runner {
namespace {

// The one-key entry with its error sink; every failure is recoverable.
[[nodiscard]] bool apply_scenario_setting(ScenarioConfig& config,
                                          std::string_view key,
                                          std::string_view value) {
  std::string error;
  return runner::apply_scenario_setting(config, key, value, &error);
}

TEST(ScenarioKv, TopologyNames) {
  ScenarioConfig config;
  EXPECT_TRUE(apply_scenario_setting(config, "topology", "unit-disk"));
  EXPECT_EQ(config.topology, TopologyKind::kUnitDisk);
  EXPECT_TRUE(apply_scenario_setting(config, "topology", "barabasi-albert"));
  EXPECT_EQ(config.topology, TopologyKind::kBarabasiAlbert);
}

TEST(ScenarioKv, NumericFields) {
  ScenarioConfig config;
  EXPECT_TRUE(apply_scenario_setting(config, "n", "42"));
  EXPECT_EQ(config.n, 42u);
  EXPECT_TRUE(apply_scenario_setting(config, "er-p", "0.35"));
  EXPECT_DOUBLE_EQ(config.er_edge_probability, 0.35);
  EXPECT_TRUE(apply_scenario_setting(config, "set-size", "6"));
  EXPECT_EQ(config.set_size, 6u);
  EXPECT_TRUE(apply_scenario_setting(config, "overlap", "3"));
  EXPECT_EQ(config.chain_overlap, 3u);
  EXPECT_TRUE(apply_scenario_setting(config, "asymmetric-drop", "0.5"));
  EXPECT_DOUBLE_EQ(config.asymmetric_drop, 0.5);
}

TEST(ScenarioKv, ChannelAndPropagationKinds) {
  ScenarioConfig config;
  EXPECT_TRUE(apply_scenario_setting(config, "channels", "chain"));
  EXPECT_EQ(config.channels, ChannelKind::kChainOverlap);
  EXPECT_TRUE(apply_scenario_setting(config, "propagation", "lowpass"));
  EXPECT_EQ(config.propagation, PropagationKind::kLowpass);
  EXPECT_TRUE(apply_scenario_setting(config, "prop-keep", "0.6"));
  EXPECT_DOUBLE_EQ(config.prop_keep, 0.6);
}

TEST(ScenarioKv, BooleanField) {
  ScenarioConfig config;
  EXPECT_TRUE(
      apply_scenario_setting(config, "require-nonempty-spans", "false"));
  EXPECT_FALSE(config.require_nonempty_spans);
  EXPECT_TRUE(
      apply_scenario_setting(config, "require-nonempty-spans", "1"));
  EXPECT_TRUE(config.require_nonempty_spans);
}

TEST(ScenarioKv, UnknownKeyReturnsFalseUntouched) {
  ScenarioConfig config;
  const ScenarioConfig before = config;
  EXPECT_FALSE(apply_scenario_setting(config, "bogus-key", "1"));
  EXPECT_EQ(config.n, before.n);
}

TEST(ScenarioKv, AppliedConfigBuilds) {
  ScenarioConfig config;
  ASSERT_TRUE(apply_scenario_setting(config, "topology", "line"));
  ASSERT_TRUE(apply_scenario_setting(config, "channels", "chain"));
  ASSERT_TRUE(apply_scenario_setting(config, "n", "6"));
  ASSERT_TRUE(apply_scenario_setting(config, "set-size", "4"));
  ASSERT_TRUE(apply_scenario_setting(config, "overlap", "2"));
  const net::Network network = build_scenario(config, 1);
  EXPECT_EQ(network.node_count(), 6u);
  EXPECT_DOUBLE_EQ(network.min_span_ratio(), 0.5);
}

// Parses `text` as a spec and returns the diagnostic ("" on success).
// Every failure must be recoverable — a daemon-submitted spec must never
// reach the aborting CHECKs in the validators.
[[nodiscard]] std::string adversary_error_of(const std::string& text) {
  const util::IniFile ini = util::IniFile::parse_string(text);
  SweepSpec spec;
  std::string error;
  const bool ok = parse_sweep_spec(ini, spec, &error);
  EXPECT_EQ(ok, error.empty());
  return error;
}

TEST(ScenarioKv, AdversarySectionParses) {
  const util::IniFile ini = util::IniFile::parse_string(
      "[adversary]\n"
      "fraction = 0.3\n"
      "attack = non-responder\n"
      "byzantine-tx = 0.7\n"
      "victim-fraction = 0.25\n"
      "trust = 1\n"
      "trust-threshold = 0.4\n"
      "trust-rate-window = 64\n");
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(parse_sweep_spec(ini, spec, &error)) << error;
  const sim::AdversarySpec& adversary = spec.faults.adversary;
  const core::TrustConfig& trust = spec.trust;
  EXPECT_DOUBLE_EQ(adversary.fraction, 0.3);
  EXPECT_EQ(adversary.attack, sim::AdversaryAttack::kNonResponder);
  EXPECT_DOUBLE_EQ(adversary.byzantine_tx, 0.7);
  EXPECT_DOUBLE_EQ(adversary.victim_fraction, 0.25);
  EXPECT_TRUE(trust.enabled);
  EXPECT_DOUBLE_EQ(trust.threshold, 0.4);
  EXPECT_EQ(trust.rate_window, 64u);
}

TEST(ScenarioKv, AdversarySectionAbsentLeavesDefaults) {
  const util::IniFile ini = util::IniFile::parse_string("[scenario]\nn = 4\n");
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(parse_sweep_spec(ini, spec, &error));
  EXPECT_FALSE(spec.faults.adversary.enabled());
  EXPECT_FALSE(spec.trust.enabled);
  EXPECT_EQ(error, "");
}

TEST(ScenarioKv, AdversarySectionRecoverableDiagnostics) {
  // Unknown key: diagnostic names the section and the key.
  const std::string unknown = adversary_error_of("[adversary]\nbanana = 1\n");
  EXPECT_NE(unknown.find("[adversary]"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("banana"), std::string::npos) << unknown;
  // Malformed value: diagnostic echoes the offending text.
  const std::string malformed =
      adversary_error_of("[adversary]\nfraction = lots\n");
  EXPECT_NE(malformed.find("lots"), std::string::npos) << malformed;
  // Out-of-range values mirror the aborting validators, recoverably.
  EXPECT_NE(adversary_error_of("[adversary]\nfraction = 1.5\n"), "");
  EXPECT_NE(adversary_error_of("[adversary]\nattack = meteor\n"), "");
  EXPECT_NE(adversary_error_of("[adversary]\ntrust-decay = 1.5\n"), "");
  EXPECT_NE(adversary_error_of("[adversary]\ntrust-threshold = 1\n"), "");
  EXPECT_NE(adversary_error_of("[adversary]\ntrust-block-slots = 0\n"), "");
}

TEST(ScenarioKv, FaultsAndMobilitySectionsRejectUnknownKeys) {
  // The sibling sections share the recoverable-diagnostic contract.
  {
    const util::IniFile ini =
        util::IniFile::parse_string("[faults]\nbanana = 1\n");
    SweepSpec spec;
    std::string error;
    EXPECT_FALSE(parse_sweep_spec(ini, spec, &error));
    EXPECT_NE(error.find("banana"), std::string::npos) << error;
  }
  {
    const util::IniFile ini =
        util::IniFile::parse_string("[mobility]\nbanana = 1\n");
    SweepSpec spec;
    std::string error;
    EXPECT_FALSE(parse_sweep_spec(ini, spec, &error));
    EXPECT_NE(error.find("banana"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace m2hew::runner
