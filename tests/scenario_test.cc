// Scenario-matrix tests (docs/ROBUSTNESS.md, "The scenario matrix"):
// decode-or-reject parsing semantics, canonical-form round-trip, the
// baseline-twin transform, generator determinism, runner/verdict
// determinism for representative specs from each generated family, and the
// overload ladder over an O->D credit chain (docs/ROBUSTNESS.md "Overload
// control").

#include <dirent.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/span_names.h"
#include "src/obs/trace_ring.h"
#include "src/scenario/digest.h"
#include "src/scenario/generator.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec.h"
#include "tests/scenario_spec_cases.h"

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

// The overload ladder's constellation: overloaded O behind the full
// overload plane, chained into a slower downstream D (its admission bucket
// takes 3 frames a step while O serves 4), and bystander B on its own bus
// domain. The fault schedule trips O's breaker (three accelerator faults,
// one failed half-open probe), rejects O's ingress now and then, and
// withholds the chain's credits every 97 ticks. `extra_faults` is spliced
// into the fault list; `dma` stages DMA on O and D.
constexpr uint32_t kLadderRxCap = 24;
constexpr size_t kLadderO = 0, kLadderD = 1, kLadderB = 2;

std::string ChainLadderJson(uint64_t load_pct,
                            const std::string& extra_faults = "",
                            bool dma = false) {
  const std::string dma_key = dma ? R"("dma": true,)" : "";
  return R"({
    "name": "overload-chain-ladder",
    "steps": 1200,
    "bus_domains": 2,
    "supervisor": { "verify_attestation": false },
    "tenants": [
      { "name": "overloaded-o", "port": 1000, "role": "workload",
        "zip_clusters": 1, "bus_domain": 0, "frames_per_step": 0, )" +
         dma_key + R"(
        "policy": { "rx_queue_capacity_frames": )" +
         std::to_string(kLadderRxCap) + R"(,
                    "tx_queue_capacity_frames": 32,
                    "priority_early_drop": true,
                    "admission_burst_frames": 24,
                    "admission_frames_per_refill": 6,
                    "admission_refill_cycles": 50,
                    "deadline_cycles": 150 } },
      { "name": "downstream-d", "port": 1500, "role": "workload",
        "frames_per_step": 0, )" +
         dma_key + R"(
        "policy": { "rx_queue_capacity_frames": 8,
                    "admission_burst_frames": 8,
                    "admission_frames_per_refill": 3,
                    "admission_refill_cycles": 100 } },
      { "name": "bystander-b", "port": 2000, "role": "bystander",
        "bus_domain": 1, "frames_per_step": 2 }
    ],
    "faults": [
      { "site": "accel.thread_access", "nf": "overloaded-o", "skip": 150,
        "count": 3 },
      { "site": "overload.breaker.probe", "nf": "overloaded-o", "count": 1 },
      { "site": "vpp.rx.admission_reject", "nf": "overloaded-o", "skip": 30,
        "count": 1, "period": 151 },
      { "site": "chain.credit_grant", "nf": "downstream-d", "skip": 5,
        "count": 1, "period": 97 })" +
         extra_faults + R"(
    ],
    "overload": { "target": "overloaded-o", "load_pct": )" +
         std::to_string(load_pct) + R"(,
                  "service_per_step": 4, "downstream": "downstream-d" }
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

// A key given twice rejects in every section, naming the key; neither copy
// wins. (Kept apart from kSpecRejectCases, whose messages the
// decode-outcome digest pins.)
constexpr SpecRejectCase kDuplicateKeyCases[] = {
    {R"({"name": "t", "name": "u", "tenants":
         [{"name": "a", "port": 1}]})",
     "scenario spec: top level: duplicate key \"name\""},
    {R"({"name": "t", "tenants": [{"name": "a", "port": 1, "port": 2}]})",
     "scenario spec: tenants[0]: duplicate key \"port\""},
    {R"({"name": "t", "supervisor": {"stable_steps": 5, "stable_steps": 6},
         "tenants": [{"name": "a", "port": 1}]})",
     "scenario spec: supervisor: duplicate key \"stable_steps\""},
    {R"({"name": "t", "tenants": [{"name": "a", "port": 1,
         "vf": {"ring_slots": 8, "cq_slots": 8, "ring_slots": 4}}]})",
     "scenario spec: tenants[0].vf: duplicate key \"ring_slots\""},
    {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
         "faults": [{"site": "vpp.rx.drop", "skip": 1, "skip": 2}]})",
     "scenario spec: faults[0]: duplicate key \"skip\""},
};

TEST(ScenarioSpecTest, RejectsPreciselyNotLeniently) {
  std::vector<SpecRejectCase> cases(std::begin(kSpecRejectCases),
                                    std::end(kSpecRejectCases));
  cases.insert(cases.end(), std::begin(kDuplicateKeyCases),
               std::end(kDuplicateKeyCases));
  for (const SpecRejectCase& c : cases) {
    const auto spec = ParseScenarioSpec(c.json);
    ASSERT_FALSE(spec.ok()) << c.json;
    EXPECT_NE(spec.status().message().find(c.error_substring),
              std::string::npos)
        << "error for " << c.json << " was: " << spec.status().message();
  }
}

// The sites a spec may name are exactly the audited registry
// (tools/snic_lint/fault_sites.txt), so a site added to src/fault/fault.h
// and the registry but not to KnownFaultSites() fails here.
TEST(ScenarioSpecTest, KnownFaultSitesMatchesRegistryShape) {
  std::ifstream in(SNIC_FAULT_SITES_FILE);
  ASSERT_TRUE(in.is_open()) << SNIC_FAULT_SITES_FILE;
  std::set<std::string> registry;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') {
      registry.insert(line);
    }
  }
  const auto& sites = KnownFaultSites();
  const std::set<std::string> known(sites.begin(), sites.end());
  EXPECT_EQ(known.size(), sites.size()) << "KnownFaultSites() repeats a site";
  EXPECT_EQ(known, registry);
}

// Each object key under `v` as its path of keys ("tenants.vf.ring_slots";
// array elements share their array's path).
void CollectKeys(const obs::json::Value& v, const std::string& prefix,
                 std::set<std::string>& paths) {
  if (v.is_object()) {
    for (const auto& [key, member] : v.AsObject()) {
      paths.insert(prefix + key);
      CollectKeys(member, prefix + key + ".", paths);
    }
  } else if (v.is_array()) {
    for (const obs::json::Value& item : v.AsArray()) {
      CollectKeys(item, prefix, paths);
    }
  }
}

// docs/ROBUSTNESS.md "Spec schema" names every key the codec accepts: the
// canonical text of a spec that sets every optional section and key holds
// them all, and each must appear in backticks in that section.
TEST(ScenarioSpecTest, SchemaDocNamesEveryKey) {
  const auto spec = ParseScenarioSpec(R"({
    "name": "every-key", "bus_domains": 1,
    "tenants": [
      { "name": "o", "port": 1, "bus_domain": 0, "dma": true,
        "policy": { "rx_queue_capacity_frames": 8 } },
      { "name": "d", "port": 2 },
      { "name": "b", "port": 3, "role": "bystander" },
      { "name": "x", "port": 4, "role": "attacker", "vf": {} }
    ],
    "faults": [
      { "site": "supervisor.reattest", "nf": "o", "on_attempt": 1 },
      { "site": "sim.bus.timeout", "raw_id": 0, "stall_cycles": 5 }
    ],
    "overload": { "target": "o", "downstream": "d" },
    "attack": { "target": "x" },
    "verdicts": { "bystander_identical": true, "containment": ["x"],
                  "must_recover": ["o"], "recovery_deadline_steps": 50,
                  "goodput_floor_pct": 50, "queue_bound": true,
                  "detect_abuse": ["flood"] }
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  const auto canonical =
      obs::json::Value::Parse(SerializeScenarioSpec(spec.value()));
  ASSERT_TRUE(canonical.ok());
  std::set<std::string> paths;
  CollectKeys(canonical.value(), "", paths);
  EXPECT_EQ(paths.size(), 61u);

  std::ifstream in(SNIC_ROBUSTNESS_DOC);
  std::stringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  const size_t begin = doc.find("### Spec schema");
  ASSERT_NE(begin, std::string::npos) << SNIC_ROBUSTNESS_DOC;
  const std::string section = doc.substr(begin, doc.find("\n### ", begin) - begin);
  for (const std::string& path : paths) {
    const std::string key = path.substr(path.rfind('.') + 1);
    EXPECT_NE(section.find("`" + key + "`"), std::string::npos)
        << "docs/ROBUSTNESS.md \"Spec schema\" does not name `" << key << "`";
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

// Digest of canonical texts, one per line: schema additions must leave
// every existing spec's canonical form byte-identical.
void MixCanonical(Fnv& fnv, const ScenarioSpec& spec) {
  const std::string line = SerializeScenarioSpec(spec) + "\n";
  fnv.Mix(reinterpret_cast<const uint8_t*>(line.data()), line.size());
}

TEST(ScenarioGeneratorTest, EveryGeneratedSpecSurvivesRoundTrip) {
  Fnv all;
  for (const ScenarioSpec& spec : GenerateScenarios(kSeed)) {
    const std::string canonical = SerializeScenarioSpec(spec);
    const auto reparsed = ParseScenarioSpec(canonical);
    ASSERT_TRUE(reparsed.ok()) << spec.name << ": "
                               << reparsed.status().message();
    EXPECT_EQ(SerializeScenarioSpec(reparsed.value()), canonical)
        << spec.name;
    MixCanonical(all, spec);
  }
  // perfbench's scenario_sweep samples this matrix: pinned.
  EXPECT_EQ(all.h, 0x394629b7b483e9caull);
}

// The checked-in specs under bench/scenarios/ as (file name, text) pairs,
// in file-name order; empty when the directory cannot be opened.
std::vector<std::pair<std::string, std::string>> ReadCuratedSpecs() {
  std::vector<std::string> files;
  DIR* dir = opendir(SNIC_CURATED_SPECS_DIR);
  if (dir == nullptr) {
    return {};
  }
  while (const dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() > 5 && name.substr(name.size() - 5) == ".json") {
      files.push_back(name);
    }
  }
  closedir(dir);
  std::sort(files.begin(), files.end());
  std::vector<std::pair<std::string, std::string>> specs;
  for (const std::string& file : files) {
    std::ifstream in(std::string(SNIC_CURATED_SPECS_DIR) + "/" + file);
    std::stringstream text;
    text << in.rdbuf();
    specs.emplace_back(file, text.str());
  }
  return specs;
}

// The checked-in files are hand-formatted, not canonical text. What holds
// is that each parses, that its canonical serialization is a fixed point
// (parse + re-serialize gives the same bytes), and that the digest of all
// nineteen canonical forms is pinned, so a schema change cannot silently
// change what a curated spec means.
TEST(ScenarioSpecTest, CuratedSpecsReserializeStablyUnderAPinnedDigest) {
  const auto curated = ReadCuratedSpecs();
  ASSERT_EQ(curated.size(), 19u) << SNIC_CURATED_SPECS_DIR;
  Fnv all;
  for (const auto& [file, text] : curated) {
    const auto spec = ParseScenarioSpec(text);
    ASSERT_TRUE(spec.ok()) << file << ": " << spec.status().message();
    const std::string canonical = SerializeScenarioSpec(spec.value());
    const auto reparsed = ParseScenarioSpec(canonical);
    ASSERT_TRUE(reparsed.ok()) << file;
    EXPECT_EQ(SerializeScenarioSpec(reparsed.value()), canonical) << file;
    MixCanonical(all, spec.value());
  }
  EXPECT_EQ(all.h, 0x593080c4a168f4c9ull);
}

TEST(ScenarioSpecTest, DownstreamRoundTripsAndIsOmittedWhenUnset) {
  const auto chained = ParseScenarioSpec(ChainLadderJson(200));
  ASSERT_TRUE(chained.ok()) << chained.status().message();
  EXPECT_EQ(chained.value().overload.downstream, "downstream-d");
  const std::string canonical = SerializeScenarioSpec(chained.value());
  EXPECT_NE(canonical.find(R"("downstream":"downstream-d")"),
            std::string::npos);
  const auto reparsed = ParseScenarioSpec(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(SerializeScenarioSpec(reparsed.value()), canonical);

  ScenarioSpec unchained = chained.value();
  unchained.overload.downstream.clear();
  EXPECT_EQ(SerializeScenarioSpec(unchained).find(R"("downstream":)"),
            std::string::npos);
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

TEST(ScenarioRunnerTest, OverloadChainLadderDegradesGracefully) {
  // Offered load from a quarter to four times O's service budget. Overload
  // of one tenant is invisible to another, the bounded queue bounds, the
  // goodput curve never collapses, the chain stalls (never drops) only
  // under overload, and every frame the wire carries under O's port went
  // through the chain.
  std::string bystander_report;
  uint64_t best_goodput = 0;
  for (const uint64_t load : {25, 50, 100, 200, 300, 400}) {
    const auto spec = ParseScenarioSpec(ChainLadderJson(load));
    ASSERT_TRUE(spec.ok()) << spec.status().message();
    const RunResult run = RunConstellation(spec.value(), kSeed);
    const std::string& report = run.tenants[kLadderB].report;
    if (bystander_report.empty()) {
      bystander_report = report;
      EXPECT_NE(report.find("bystander-b.rx: 2400 "), std::string::npos)
          << report;
    }
    EXPECT_EQ(report, bystander_report) << "load " << load;

    EXPECT_LE(run.queue_peak_frames, kLadderRxCap) << "load " << load;
    EXPECT_LE(run.queue_peak_bytes, kLadderRxCap * kMaxFrameBytes)
        << "load " << load;

    EXPECT_GT(run.target_goodput, 0u) << "load " << load;
    EXPECT_GE(run.target_goodput * 100, best_goodput * 85)
        << "load " << load << ": goodput " << run.target_goodput
        << " vs best " << best_goodput;
    best_goodput = std::max(best_goodput, run.target_goodput);

    if (load <= 50) {
      EXPECT_EQ(run.chain_frames_stalled, 0u) << "load " << load;
    }
    if (load == 400) {
      EXPECT_GT(run.chain_frames_stalled, 0u);
    }
    EXPECT_LE(run.target_goodput, run.chain_frames_moved) << "load " << load;
  }
}

TEST(ScenarioRunnerTest, OverloadChainRelinksAcrossRelaunches) {
  // D crashes early and O later (injected DMA faults); each relaunch
  // recreates the link, so the chain keeps moving frames to the end.
  const auto spec = ParseScenarioSpec(ChainLadderJson(
      100,
      R"(,
      { "site": "dma.host_to_nic", "nf": "downstream-d", "skip": 10 },
      { "site": "dma.host_to_nic", "nf": "overloaded-o", "skip": 600 })",
      /*dma=*/true));
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  const RunResult run = RunConstellation(spec.value(), kSeed);
  EXPECT_EQ(run.tenants[kLadderD].restarts, 1u);
  EXPECT_EQ(run.tenants[kLadderO].restarts, 1u);
  EXPECT_EQ(run.tenants[kLadderD].final_health, mgmt::NfHealth::kRunning);
  EXPECT_EQ(run.tenants[kLadderO].final_health, mgmt::NfHealth::kRunning);
  // Three frames a step through D's admission, less the relaunch gaps.
  EXPECT_GT(run.chain_frames_moved, 3000u);
  EXPECT_LE(run.target_goodput, run.chain_frames_moved);

  // With D quarantined for good, O's relaunch has no consumer to link to:
  // its TX waits, and still never reaches the wire directly.
  const auto dead_end = ParseScenarioSpec(ChainLadderJson(
      100,
      R"(,
      { "site": "dma.host_to_nic", "nf": "downstream-d", "skip": 10,
        "count": "forever" },
      { "site": "dma.host_to_nic", "nf": "overloaded-o", "skip": 600 })",
      /*dma=*/true));
  ASSERT_TRUE(dead_end.ok()) << dead_end.status().message();
  const RunResult stranded = RunConstellation(dead_end.value(), kSeed);
  EXPECT_EQ(stranded.tenants[kLadderD].final_health,
            mgmt::NfHealth::kQuarantined);
  EXPECT_EQ(stranded.tenants[kLadderO].restarts, 1u);
  EXPECT_LE(stranded.target_goodput, stranded.chain_frames_moved);
}

// The `<tenant>.ring: N` lane count in one tenant's report; -1 when the
// report has no ring line.
int64_t RingLaneCount(const std::string& report, const std::string& tenant) {
  const std::string key = tenant + ".ring: ";
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stoll(line.substr(key.size()));
    }
  }
  return -1;
}

// bystander_identical compares each bystander's trace-ring lane digest
// between the subject run and its baseline twin. Two empty lanes compare
// equal, so the verdict is evidence only if every bystander lane holds
// records in both runs.
TEST(ScenarioRunnerTest, CuratedBystanderRingLanesAreNonEmpty) {
  const auto curated = ReadCuratedSpecs();
  ASSERT_EQ(curated.size(), 19u) << SNIC_CURATED_SPECS_DIR;
  size_t lanes = 0;
  for (const auto& [file, text] : curated) {
    const auto parsed = ParseScenarioSpec(text);
    ASSERT_TRUE(parsed.ok()) << file;
    const ScenarioSpec& spec = parsed.value();
    if (!spec.verdicts.bystander_identical) {
      continue;
    }
    const RunResult subject = RunConstellation(spec, kSeed);
    const RunResult twin = RunConstellation(BaselineTwin(spec), kSeed);
    for (size_t i = 0; i < spec.tenants.size(); ++i) {
      const TenantSpec& tenant = spec.tenants[i];
      if (tenant.role != TenantRole::kBystander) {
        continue;
      }
      EXPECT_GT(RingLaneCount(subject.tenants[i].report, tenant.name), 0)
          << file << ": subject lane of " << tenant.name;
      EXPECT_GT(RingLaneCount(twin.tenants[i].report, tenant.name), 0)
          << file << ": twin lane of " << tenant.name;
      ++lanes;
    }
  }
  EXPECT_GE(lanes, curated.size());  // every curated spec has a bystander
}

// The decoder accepts tenant names of any length, so the per-tenant report
// must hold every line whole however long the name: a cut line would lose
// its counters (and its newline) from the record bystander_identical
// compares.
TEST(ScenarioRunnerTest, LongTenantNamesKeepEveryReportLineWhole) {
  const auto curated = ReadCuratedSpecs();
  const auto flood = std::find_if(
      curated.begin(), curated.end(),
      [](const auto& entry) { return entry.first == "hostile_flood.json"; });
  ASSERT_NE(flood, curated.end());
  const std::string short_name = "victim-v";
  const std::string long_name(460, 'v');
  std::string text = flood->second;
  const size_t at = text.find('"' + short_name + '"');
  ASSERT_NE(at, std::string::npos);
  text.replace(at + 1, short_name.size(), long_name);
  const auto long_spec = ParseScenarioSpec(text);
  ASSERT_TRUE(long_spec.ok()) << long_spec.status().message();
  const auto short_spec = ParseScenarioSpec(flood->second);
  ASSERT_TRUE(short_spec.ok());
  ASSERT_EQ(long_spec.value().tenants[0].name, long_name);

  const std::string report =
      RunConstellation(long_spec.value(), kSeed).tenants[0].report;
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.back(), '\n');
  std::stringstream lines(report);
  std::string line;
  size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind(long_name + ".", 0), 0u) << line;
    ++count;
  }
  // role, rx, wire, vpp, completions, vf, metrics, ring.
  EXPECT_EQ(count, 8u) << report;
  EXPECT_NE(report.find(" max_wait="), std::string::npos) << report;
  EXPECT_NE(report.find(" tx_bytes="), std::string::npos) << report;

  // The name is only a label: with it swapped back, the record is the
  // short-named run's, counter for counter.
  std::string relabelled = report;
  for (size_t pos = 0;
       (pos = relabelled.find(long_name, pos)) != std::string::npos;
       pos += short_name.size()) {
    relabelled.replace(pos, long_name.size(), short_name);
  }
  EXPECT_EQ(relabelled,
            RunConstellation(short_spec.value(), kSeed).tenants[0].report);
}

// Runs the curated spec in `file` with a ring and counts the accel.* records
// on its overload target's lane by name. The runner installs its registry and
// ring once and every component binds them at construction, so the target's
// breaker-gated accelerator dispatch records there, and on no other lane.
std::map<std::string, size_t> TargetAccelRecords(const std::string& file) {
  const auto curated = ReadCuratedSpecs();
  const auto entry = std::find_if(
      curated.begin(), curated.end(),
      [&](const auto& named) { return named.first == file; });
  if (entry == curated.end()) {
    ADD_FAILURE() << "no curated " << file;
    return {};
  }
  const auto spec = ParseScenarioSpec(entry->second);
  EXPECT_TRUE(spec.ok()) << file;
  uint32_t target_pid = 0;
  for (size_t i = 0; spec.ok() && i < spec.value().tenants.size(); ++i) {
    if (spec.value().tenants[i].name == spec.value().overload.target) {
      target_pid = static_cast<uint32_t>(i + 1);  // adoption order
    }
  }
  if (target_pid == 0) {
    ADD_FAILURE() << file << " has no overload target";
    return {};
  }

  obs::TraceRing ring;
  const RunResult run = RunConstellation(spec.value(), kSeed, &ring);
  EXPECT_EQ(run.tenants.size(), spec.value().tenants.size());
  std::map<std::string, size_t> counts;
  for (size_t i = 0; i < ring.size(); ++i) {
    const obs::TraceRecord& r = ring.record(i);
    const std::string_view name = ring.NameOf(r.name);
    if (name.substr(0, 6) == "accel.") {
      EXPECT_EQ(r.pid, target_pid) << file << ": " << name;
      counts[std::string(name)] += r.pid == target_pid;
    }
  }
  return counts;
}

TEST(ScenarioRunnerTest, GatedOverloadTargetRecordsAccelDispatch) {
  auto counts = TargetAccelRecords("overload_400.json");
  EXPECT_GT(counts[std::string(obs::spans::kAccelDispatch)], 0u);
}

// overload_accel_breaker adds accelerator faults to overload_400's target:
// its breaker trips and its work falls back, on its own lane only.
TEST(ScenarioRunnerTest, AccelFaultsTripOnlyTheTargetsBreaker) {
  auto counts = TargetAccelRecords("overload_accel_breaker.json");
  EXPECT_GT(counts[std::string(obs::spans::kAccelBreaker)], 0u);
  EXPECT_GT(counts[std::string(obs::spans::kAccelFallback)], 0u);
  EXPECT_GT(counts[std::string(obs::spans::kAccelDispatch)], 0u);
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
