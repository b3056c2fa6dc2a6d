// Scenario-matrix tests (docs/ROBUSTNESS.md, "The scenario matrix"):
// decode-or-reject parsing semantics, canonical-form round-trip, the
// baseline-twin transform, generator determinism, and runner/verdict
// determinism for representative specs from each generated family.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/scenario/generator.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec.h"

namespace snic::scenario {
namespace {

constexpr uint64_t kSeed = 0x5ce9a21ull;

// A minimal valid spec to mutate from.
std::string MinimalJson() {
  return R"({
    "name": "t",
    "steps": 10,
    "tenants": [
      { "name": "a", "port": 1, "role": "workload" },
      { "name": "b", "port": 2, "role": "bystander" }
    ]
  })";
}

const ScenarioSpec& FindSpec(const std::vector<ScenarioSpec>& specs,
                             const std::string& prefix) {
  for (const ScenarioSpec& spec : specs) {
    if (spec.name.rfind(prefix, 0) == 0) {
      return spec;
    }
  }
  ADD_FAILURE() << "no generated spec named " << prefix << "*";
  static ScenarioSpec empty;
  return empty;
}

TEST(ScenarioSpecTest, MinimalSpecParses) {
  const auto spec = ParseScenarioSpec(MinimalJson());
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec.value().name, "t");
  EXPECT_EQ(spec.value().steps, 10u);
  ASSERT_EQ(spec.value().tenants.size(), 2u);
  EXPECT_EQ(spec.value().tenants[1].role, TenantRole::kBystander);
}

TEST(ScenarioSpecTest, RejectsPreciselyNotLeniently) {
  struct Case {
    const char* json;
    const char* error_substring;
  };
  const Case cases[] = {
      {"", "JSON"},
      {"[]", "object"},
      {R"({"steps": 10, "tenants": []})", "name"},
      {R"({"name": "t", "steps": 10})", "tenants"},
      {R"({"name": "t", "steps": 10, "tenants": [], "bogus": 1})", "bogus"},
      {R"({"name": "t", "steps": 0, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}]})",
       "steps"},
      {R"({"name": "t", "steps": 1.5, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}]})",
       "integer"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "pilot"}]})",
       "role"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload"},
            {"name": "a", "port": 2, "role": "workload"}]})",
       "duplicate"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}],
           "faults": [{"site": "no.such.site", "nf": "a"}]})",
       "no.such.site"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}],
           "faults": [{"site": "vpp.rx.drop", "nf": "ghost"}]})",
       "ghost"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}],
           "faults": [{"site": "vpp.rx.drop", "nf": "a", "on_attempt": 1}]})",
       "on_attempt"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "attacker"}]})",
       "vf"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload", "bus_domain": 0}]})",
       "bus_domain"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}],
           "verdicts": {"bystander_identical": true}})",
       "bystander"},
  };
  for (const Case& c : cases) {
    const auto spec = ParseScenarioSpec(c.json);
    ASSERT_FALSE(spec.ok()) << c.json;
    EXPECT_NE(spec.status().message().find(c.error_substring),
              std::string::npos)
        << "error for " << c.json << " was: " << spec.status().message();
  }
}

TEST(ScenarioSpecTest, KnownFaultSitesMatchesRegistryShape) {
  const auto& sites = KnownFaultSites();
  EXPECT_GE(sites.size(), 17u);
  for (const auto site : sites) {
    EXPECT_FALSE(site.empty());
  }
}

TEST(ScenarioSpecTest, BaselineTwinStripsInjectionButKeepsConstellation) {
  const auto specs = GenerateScenarios(kSeed);
  const ScenarioSpec& subject = FindSpec(specs, "f/attack-overload");
  ASSERT_TRUE(subject.has_overload);
  ASSERT_TRUE(subject.has_attack);
  ASSERT_FALSE(subject.faults.empty());

  const ScenarioSpec twin = BaselineTwin(subject);
  EXPECT_TRUE(twin.faults.empty());
  EXPECT_EQ(twin.attack.flood_rings, 0u);
  EXPECT_FALSE(twin.attack.squat);
  EXPECT_EQ(twin.overload.load_pct, subject.overload.baseline_pct);
  // The constellation itself is untouched.
  ASSERT_EQ(twin.tenants.size(), subject.tenants.size());
  for (size_t i = 0; i < twin.tenants.size(); ++i) {
    EXPECT_EQ(twin.tenants[i].name, subject.tenants[i].name);
    EXPECT_EQ(twin.tenants[i].port, subject.tenants[i].port);
    EXPECT_EQ(twin.tenants[i].role, subject.tenants[i].role);
  }
}

TEST(ScenarioGeneratorTest, ProducesTheMatrixDeterministically) {
  const auto first = GenerateScenarios(kSeed);
  const auto second = GenerateScenarios(kSeed);
  ASSERT_GE(first.size(), 200u);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(SerializeScenarioSpec(first[i]),
              SerializeScenarioSpec(second[i]))
        << first[i].name;
  }
  // Names are unique — a duplicate would make verdict lines ambiguous.
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : first) {
    names.push_back(spec.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(ScenarioGeneratorTest, EveryGeneratedSpecSurvivesRoundTrip) {
  for (const ScenarioSpec& spec : GenerateScenarios(kSeed)) {
    const std::string canonical = SerializeScenarioSpec(spec);
    const auto reparsed = ParseScenarioSpec(canonical);
    ASSERT_TRUE(reparsed.ok()) << spec.name << ": "
                               << reparsed.status().message();
    EXPECT_EQ(SerializeScenarioSpec(reparsed.value()), canonical)
        << spec.name;
  }
}

TEST(ScenarioRunnerTest, SameSeedSameReports) {
  const auto specs = GenerateScenarios(kSeed);
  const ScenarioSpec& spec = FindSpec(specs, "a/vpp.rx.drop");
  const RunResult a = RunConstellation(spec, 42);
  const RunResult b = RunConstellation(spec, 42);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].report, b.tenants[i].report) << spec.name;
  }
  // A different seed must actually change the run.
  const RunResult c = RunConstellation(spec, 43);
  bool any_diff = false;
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    any_diff |= a.tenants[i].report != c.tenants[i].report;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioRunnerTest, VerdictsPassAcrossFamilies) {
  const auto specs = GenerateScenarios(kSeed);
  // One representative per family: single-site, correlated burst,
  // crash-during-recovery, overload ladder, vNIC attack, compound.
  for (const char* prefix : {"a/", "b/", "c/", "d/", "e/", "f/"}) {
    const ScenarioSpec& spec = FindSpec(specs, prefix);
    const ScenarioVerdict verdict = EvaluateScenario(spec, kSeed);
    EXPECT_TRUE(verdict.pass) << spec.name << ": " << verdict.detail;
    EXPECT_FALSE(verdict.detail.empty()) << spec.name;
  }
}

TEST(ScenarioRunnerTest, AttackedVictimWaitStaysBoundedAndUnflagged) {
  // Family e: under every attack shape and intensity the victim VF's worst
  // descriptor-to-delivery wait stays within 10 steps, and the detector
  // never flags the victim.
  size_t checked = 0;
  for (const ScenarioSpec& spec : GenerateScenarios(kSeed)) {
    if (spec.name.rfind("e/", 0) != 0) {
      continue;
    }
    const uint64_t bound = 10 * spec.cycles_per_step;
    const RunResult run = RunConstellation(spec, kSeed);
    EXPECT_EQ(run.false_abuse_flags, 0u) << spec.name;
    for (size_t i = 0; i < spec.tenants.size(); ++i) {
      if (spec.tenants[i].role != TenantRole::kBystander) {
        continue;
      }
      const std::string& report = run.tenants[i].report;
      const size_t at = report.find(" max_wait=");
      ASSERT_NE(at, std::string::npos) << spec.name << "\n" << report;
      const uint64_t max_wait =
          std::stoull(report.substr(at + std::strlen(" max_wait=")));
      EXPECT_LE(max_wait, bound) << spec.name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 36u);  // four attack shapes x nine intensities
}

TEST(ScenarioRunnerTest, CompoundScenarioContainsWithBystanderIdentity) {
  // The acceptance-criteria shape: fault-during-recovery + overload, the
  // victim quarantined, the bystander provably untouched.
  const auto specs = GenerateScenarios(kSeed);
  const ScenarioSpec& spec = FindSpec(specs, "f/fault-during-recovery");
  const ScenarioVerdict verdict = EvaluateScenario(spec, kSeed);
  EXPECT_TRUE(verdict.pass) << verdict.detail;
  EXPECT_NE(verdict.detail.find("bystander_identical=ok"), std::string::npos)
      << verdict.detail;
  EXPECT_NE(verdict.detail.find("containment:victim-a=ok"),
            std::string::npos)
      << verdict.detail;
}

TEST(ScenarioRunnerTest, VerdictFailuresNameTheBrokenPredicate) {
  // Flip a passing scenario into a failing one: demand containment of a
  // tenant that never crashes. The verdict must fail loudly and say why.
  const auto specs = GenerateScenarios(kSeed);
  ScenarioSpec spec = FindSpec(specs, "a/vpp.rx.drop");
  spec.verdicts.containment.push_back("bystander-b");
  const ScenarioVerdict verdict = EvaluateScenario(spec, kSeed);
  EXPECT_FALSE(verdict.pass);
  EXPECT_NE(verdict.detail.find("containment:bystander-b=FAIL"),
            std::string::npos)
      << verdict.detail;
}

}  // namespace
}  // namespace snic::scenario
