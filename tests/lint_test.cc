// Drives snic_lint's rule engine in-process against the known-bad
// mini-trees in tests/lint_fixtures/ (docs/STATIC_ANALYSIS.md): every rule
// family must fire on its fixture, and both suppression mechanisms — the
// inline `// snic-lint: allow(<rule>)` comment and the audited allowlist —
// must actually silence findings. The whole-tree gate itself is the
// separate `snic_lint_tree` CTest.

#include "tools/snic_lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "tools/snic_lint/symbol_graph.h"

namespace snic::lint {
namespace {

std::vector<Finding> LintFixture(const std::string& name) {
  Options options;
  options.root = std::string(SNIC_LINT_FIXTURES_DIR) + "/" + name;
  return RunLint(options);
}

size_t CountRule(const std::vector<Finding>& findings,
                 const std::string& rule) {
  return static_cast<size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& message_substring) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule &&
           f.message.find(message_substring) != std::string::npos;
  });
}

bool HasFindingInFile(const std::vector<Finding>& findings,
                      const std::string& rule, const std::string& file,
                      const std::string& message_substring) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.file == file &&
           f.message.find(message_substring) != std::string::npos;
  });
}

bool HasFindingOnLine(const std::vector<Finding>& findings,
                      const std::string& file, int line) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.file == file && f.line == line;
  });
}

TEST(SnicLintTest, WallclockFiresAndInlineSuppressionHolds) {
  const auto findings = LintFixture("wallclock");
  EXPECT_EQ(findings.size(), 2u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "no-wallclock"), 2u);
  EXPECT_TRUE(HasFinding(findings, "no-wallclock", "steady_clock"));
  EXPECT_TRUE(HasFinding(findings, "no-wallclock", "time"));
  // The `// snic-lint: allow(no-wallclock)` comment covers the next line.
  EXPECT_FALSE(HasFindingOnLine(findings, "src/sim/bad.cc", 15));
  // Member access (`c.clock()`, `p->clock()`) is a model clock, exempt.
  EXPECT_FALSE(HasFindingOnLine(findings, "src/sim/bad.cc", 20));
}

TEST(SnicLintTest, AmbientRngFiresAndInlineSuppressionHolds) {
  const auto findings = LintFixture("rng");
  EXPECT_EQ(findings.size(), 3u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "no-ambient-rng"), 3u);
  EXPECT_TRUE(HasFinding(findings, "no-ambient-rng", "random_device"));
  EXPECT_TRUE(HasFinding(findings, "no-ambient-rng", "mt19937"));
  EXPECT_TRUE(HasFinding(findings, "no-ambient-rng", "rand"));
  EXPECT_FALSE(HasFindingOnLine(findings, "src/nf/bad.cc", 16));  // suppressed
  EXPECT_FALSE(HasFindingOnLine(findings, "src/nf/bad.cc", 18));  // not a call
}

TEST(SnicLintTest, MutableStaticsFire) {
  const auto findings = LintFixture("statics");
  EXPECT_EQ(findings.size(), 3u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "no-mutable-file-static"), 3u);
  EXPECT_TRUE(HasFinding(findings, "no-mutable-file-static", "counter"));
  EXPECT_TRUE(HasFinding(findings, "no-mutable-file-static", "tls_scratch"));
  EXPECT_TRUE(HasFinding(findings, "no-mutable-file-static", "calls"));
  // const statics and static functions are exempt.
  EXPECT_FALSE(HasFinding(findings, "no-mutable-file-static", "kLimit"));
  EXPECT_FALSE(HasFinding(findings, "no-mutable-file-static", "Helper"));
}

TEST(SnicLintTest, MutableStaticsAllowlistSilencesWholeFile) {
  const auto findings = LintFixture("statics_allowlisted");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(SnicLintTest, UnorderedIterationFiresAndInlineSuppressionHolds) {
  const auto findings = LintFixture("unordered");
  EXPECT_EQ(findings.size(), 3u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "no-unordered-iteration"), 3u);
  EXPECT_TRUE(HasFinding(findings, "no-unordered-iteration",
                         "range-for over unordered container `table`"));
  EXPECT_TRUE(HasFinding(findings, "no-unordered-iteration", "`seen.begin()`"));
  EXPECT_TRUE(
      HasFinding(findings, "no-unordered-iteration", "`live.cbegin()`"));
  // std::map iteration, lookups/size probes and `.end()` miss-checks pass.
  EXPECT_FALSE(HasFinding(findings, "no-unordered-iteration", "`ordered`"));
  EXPECT_FALSE(HasFinding(findings, "no-unordered-iteration", ".end()"));
  // The `// snic-lint: allow(no-unordered-iteration)` comment covers the
  // suppressed range-for on the following line.
  EXPECT_FALSE(HasFindingOnLine(findings, "src/core/bad.cc", 34));
}

TEST(SnicLintTest, UnorderedIterationAllowlistSilencesWholeFile) {
  const auto findings = LintFixture("unordered_allowlisted");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(SnicLintTest, FaultSiteRegistryFiresAndInlineSuppressionHolds) {
  const auto findings = LintFixture("fault");
  EXPECT_EQ(findings.size(), 5u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "fault-site-registry"), 5u);
  EXPECT_TRUE(HasFinding(findings, "fault-site-registry",
                         "\"fix.unregistered\" is not listed"));
  EXPECT_TRUE(HasFinding(findings, "fault-site-registry",
                         "\"fix.unregistered\" is not documented"));
  EXPECT_TRUE(HasFinding(findings, "fault-site-registry",
                         "declared by multiple constants"));
  EXPECT_TRUE(HasFinding(findings, "fault-site-registry", "stale"));
  EXPECT_TRUE(HasFinding(findings, "fault-site-registry",
                         "cannot resolve fault site `unknown_site`"));
  EXPECT_FALSE(HasFinding(findings, "fault-site-registry", "another_unknown"));
}

TEST(SnicLintTest, MetricNameDriftFiresAndInlineSuppressionHolds) {
  const auto findings = LintFixture("metrics");
  EXPECT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_TRUE(HasFinding(findings, "metric-name-drift", "fix.undocumented"));
  EXPECT_FALSE(HasFinding(findings, "metric-name-drift", "fix.documented"));
  EXPECT_FALSE(HasFinding(findings, "metric-name-drift", "fix.suppressed"));
}

TEST(SnicLintTest, SpanNameRegistryFiresAndInlineSuppressionHolds) {
  const auto findings = LintFixture("spans");
  EXPECT_EQ(findings.size(), 5u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "span-name-registry"), 5u);
  EXPECT_TRUE(HasFinding(findings, "span-name-registry",
                         "\"fix.span_unregistered\" is not listed"));
  EXPECT_TRUE(HasFinding(findings, "span-name-registry",
                         "\"fix.span_unregistered\" is not documented"));
  // Literal names audit exactly like constants.
  EXPECT_TRUE(HasFinding(findings, "span-name-registry",
                         "\"fix.span_literal\" is not documented"));
  EXPECT_FALSE(HasFinding(findings, "span-name-registry",
                          "\"fix.span_literal\" is not listed"));
  EXPECT_TRUE(HasFinding(findings, "span-name-registry", "stale"));
  EXPECT_TRUE(HasFinding(findings, "span-name-registry",
                         "cannot resolve span name `dynamic_name`"));
  EXPECT_FALSE(HasFinding(findings, "span-name-registry", "another_dynamic"));
  // The registered + documented name is clean.
  EXPECT_FALSE(HasFinding(findings, "span-name-registry",
                          "fix.span_registered"));
}

TEST(SnicLintTest, IncludeCycleFires) {
  const auto findings = LintFixture("cycle");
  EXPECT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_TRUE(HasFinding(findings, "include-cycle",
                         "src/a.h -> src/b.h -> src/a.h"));
}

TEST(SnicLintTest, IncludeCycleAllowlistSilences) {
  const auto findings = LintFixture("cycle_allowlisted");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

// Roots are the bench/, tools/ and examples/ sources. used.h is reached
// directly, impl_only.h through used.h's .cc, example_only.h from a .cpp
// example. orphan.h is reached only by a test and by the umbrella header,
// neither of which counts; allowed.h is unreached but allowlisted.
TEST(SnicLintTest, UnreachedModuleFiresOnlyOnHeadersNoProductReaches) {
  const auto findings = LintFixture("unreached_module");
  EXPECT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "unreached-module"), 1u);
  EXPECT_TRUE(HasFindingOnLine(findings, "src/core/orphan.h", 0));
}

// The shipped allowlist is audited: every entry must still correspond to a
// real declaration, so deleting the code deletes the exception. Run the
// real tree's linter with an empty allowlist and check that exactly the
// allowlisted identifiers resurface (nothing else hides behind the list).
TEST(SnicLintTest, TreeAllowlistEntriesAreAllLive) {
  Options options;
  options.root = std::string(SNIC_LINT_FIXTURES_DIR) + "/../..";
  options.allowlist_path = "tools/snic_lint/does_not_exist.txt";
  const auto findings = RunLint(options);
  EXPECT_EQ(CountRule(findings, "no-mutable-file-static"), 5u)
      << FormatFindings(findings);
  EXPECT_TRUE(HasFinding(findings, "no-mutable-file-static", "registry"));
  // One memo template (src/common/process_memo.h) behind every process
  // memo: key generation, the expected measurement and zero-block runs.
  EXPECT_TRUE(HasFindingInFile(findings, "no-mutable-file-static",
                               "src/common/process_memo.h", "memo"));
  EXPECT_TRUE(
      HasFinding(findings, "no-mutable-file-static", "tls_default_registry"));
  EXPECT_TRUE(HasFinding(findings, "no-mutable-file-static", "tls_plane"));
  EXPECT_TRUE(
      HasFinding(findings, "no-mutable-file-static", "tls_trace_ring"));
  // The attestation wire codec is reached through mgmt::ChallengeQuote.
  EXPECT_EQ(CountRule(findings, "unreached-module"), 0u);
  // And nothing beyond the allowlisted entries is outstanding.
  EXPECT_EQ(findings.size(), 5u) << FormatFindings(findings);
}

// ---------------------------------------------------------------------------
// v2: transitive reachability, layer DAG, stale suppressions, symbol graph
// ---------------------------------------------------------------------------

// The seeded regression the lexical rules provably miss: the clock read
// lives in src/common (outside no-wallclock's scope), one call away from a
// src/sim caller. Only the transitive pass reports it — with the full chain.
TEST(SnicLintTest, TransitiveWallclockCatchesClockHiddenOneCallAway) {
  const auto findings = LintFixture("transitive_wallclock");
  // Lexical rule: zero findings. This is the gap the whole-tree pass closes.
  EXPECT_EQ(CountRule(findings, "no-wallclock"), 0u) << FormatFindings(findings);
  EXPECT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "no-transitive-wallclock"), 1u);
  // Chain-reporting golden: the exact frontier-to-root chain.
  EXPECT_EQ(findings[0].file, "src/sim/caller.cc");
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_EQ(findings[0].message,
            "function `sim::Step` in a simulated-cycles layer can "
            "transitively reach wall-clock API `clock_gettime`; call chain: "
            "sim::Step (src/sim/caller.cc:8) -> common::NowNs "
            "(src/common/time_util.h:14) -> clock_gettime");
  // The two-hop caller is not double-reported (the inner sim function owns
  // the finding), and the pure path stays clean.
  EXPECT_FALSE(HasFinding(findings, "no-transitive-wallclock", "sim::Drive"));
  EXPECT_FALSE(HasFinding(findings, "no-transitive-wallclock", "sim::Settle"));
}

TEST(SnicLintTest, TransitiveRngFiresAndCallSiteSuppressionCutsChain) {
  const auto findings = LintFixture("transitive_rng");
  EXPECT_EQ(findings.size(), 2u) << FormatFindings(findings);
  // The lexical rule still reports the direct use in src/common (it scans
  // the whole tree); the transitive rule adds the core-layer caller.
  EXPECT_EQ(CountRule(findings, "no-ambient-rng"), 1u);
  EXPECT_EQ(CountRule(findings, "no-transitive-rng"), 1u);
  EXPECT_TRUE(HasFinding(
      findings, "no-transitive-rng",
      "core::Pick (src/core/scheduler.cc:7) -> common::AmbientJitter "
      "(src/common/jitter.h:12) -> mt19937"));
  // `allow(no-transitive-rng)` at the call-site link cuts that chain —
  // and because it cut one, it is live, not a stale-suppression finding.
  EXPECT_FALSE(HasFinding(findings, "no-transitive-rng", "core::Audited"));
  EXPECT_EQ(CountRule(findings, "stale-suppression"), 0u);
}

TEST(SnicLintTest, TransitiveOsFiresDirectAndChained) {
  const auto findings = LintFixture("transitive_os");
  EXPECT_EQ(findings.size(), 2u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "no-transitive-os"), 2u);
  // Chained through a src/common helper.
  EXPECT_TRUE(HasFinding(
      findings, "no-transitive-os",
      "nf::Configure (src/nf/firewall.cc:10) -> common::DebugLevel "
      "(src/common/env_util.h:10) -> getenv"));
  // Direct: there is no lexical os rule, so the transitive rule reports
  // in-scope direct uses too.
  EXPECT_TRUE(HasFinding(findings, "no-transitive-os",
                         "`nf::LoadRules` in a simulated-cycles layer calls "
                         "OS-escape API `fopen`"));
}

TEST(SnicLintTest, LayerDagFiresAtBothGranularities) {
  const auto findings = LintFixture("layer_dag");
  EXPECT_EQ(findings.size(), 4u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "layer-dag"), 4u);
  // Include-edge granularity: obs #includes sim.
  EXPECT_TRUE(HasFinding(findings, "layer-dag",
                         "#include crosses the layer DAG: `obs` may not "
                         "depend on `sim`"));
  // Call-edge granularity on the same dependency.
  EXPECT_TRUE(HasFinding(findings, "layer-dag",
                         "`obs::Export` (obs) calls `sim::Tick` (sim"));
  // The forward-declaration smuggle: no #include betrays the net -> sim
  // edge, only the call graph sees it.
  EXPECT_TRUE(HasFinding(findings, "layer-dag",
                         "`net::Poll` (net) calls `sim::Tick` (sim"));
  EXPECT_FALSE(HasFinding(findings, "layer-dag", "#include crosses the "
                                                 "layer DAG: `net`"));
  // Registry drift: a declared layer with no src/ module.
  EXPECT_TRUE(HasFinding(findings, "layer-dag",
                         "registry declares layer `ghost`"));
  // The declared sim -> common edge is clean.
  EXPECT_FALSE(HasFinding(findings, "layer-dag", "`sim` may not depend"));
}

TEST(SnicLintTest, StaleSuppressionIsItselfAFinding) {
  const auto findings = LintFixture("stale_suppression");
  EXPECT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "stale-suppression"), 1u);
  // The live suppression (silencing a real no-wallclock finding) passes;
  // the one suppressing nothing is reported at its own line.
  EXPECT_EQ(findings[0].file, "src/sim/timer.cc");
  EXPECT_EQ(findings[0].line, 13);
  EXPECT_EQ(CountRule(findings, "no-wallclock"), 0u);
}

// Deterministic output: findings sorted by (file, line, rule).
TEST(SnicLintTest, FindingsAreSortedByFileLineRule) {
  const auto findings = LintFixture("layer_dag");
  ASSERT_GE(findings.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
        return std::tie(a.file, a.line, a.rule, a.message) <
               std::tie(b.file, b.line, b.rule, b.message);
      }))
      << FormatFindings(findings);
}

// ---------------------------------------------------------------------------
// Symbol indexer golden: overloads, methods vs free functions, namespaced
// calls, and calls through using-declarations resolve to the right nodes.
// ---------------------------------------------------------------------------

SymbolGraph BuildFixtureGraph(const std::string& name,
                              std::vector<FileIndex>* out) {
  const std::string root = std::string(SNIC_LINT_FIXTURES_DIR) + "/" + name;
  // Same order GatherSources would produce: sorted repo-relative paths.
  const std::vector<std::string> paths = {
      "src/alpha/calc.cc", "src/alpha/calc.h", "src/beta/use.cc"};
  for (const std::string& p : paths) {
    std::ifstream in(root + "/" + p, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    out->push_back(IndexFile(Tokenize(p, text.str())));
  }
  return BuildSymbolGraph(*out);
}

size_t CountNodes(const SymbolGraph& g, const std::string& qualified) {
  return static_cast<size_t>(
      std::count_if(g.nodes.begin(), g.nodes.end(),
                    [&](const SymbolGraph::Node& n) {
                      return n.qualified == qualified;
                    }));
}

bool HasEdge(const SymbolGraph& g, const std::string& from,
             const std::string& to) {
  for (int id = 0; id < static_cast<int>(g.nodes.size()); ++id) {
    if (g.nodes[id].qualified != from) {
      continue;
    }
    for (const SymbolGraph::Edge& e : g.out[id]) {
      if (g.nodes[e.to].qualified == to) {
        return true;
      }
    }
  }
  return false;
}

TEST(SymbolGraphTest, GoldenGraphOverFixtureTree) {
  std::vector<FileIndex> files;
  const SymbolGraph g = BuildFixtureGraph("symbols", &files);

  // Both Twice overload definitions are indexed as distinct nodes; the
  // declarations in calc.h are not definitions and produce no nodes.
  EXPECT_EQ(CountNodes(g, "alpha::Twice"), 2u);
  EXPECT_EQ(CountNodes(g, "alpha::Counter::Bump"), 1u);
  EXPECT_EQ(CountNodes(g, "alpha::Counter::Value"), 1u);
  EXPECT_EQ(CountNodes(g, "beta::Run"), 1u);

  // Methods vs free functions.
  for (const SymbolGraph::Node& n : g.nodes) {
    if (n.qualified == "alpha::Twice") {
      EXPECT_FALSE(n.is_method);
    }
    if (n.qualified == "alpha::Counter::Bump" ||
        n.qualified == "alpha::Counter::Value") {
      EXPECT_TRUE(n.is_method);
    }
  }

  // Out-of-class method body: unqualified call to a namespace-visible free
  // function and to an own-class method.
  EXPECT_TRUE(HasEdge(g, "alpha::Counter::Bump", "alpha::Twice"));
  EXPECT_TRUE(HasEdge(g, "alpha::Counter::Bump", "alpha::Counter::Value"));

  // Cross-namespace calls: through `using alpha::Twice;` and qualified.
  EXPECT_TRUE(HasEdge(g, "beta::Run", "alpha::Twice"));

  // No fabricated reverse edges.
  EXPECT_FALSE(HasEdge(g, "alpha::Twice", "beta::Run"));
  EXPECT_FALSE(HasEdge(g, "alpha::Counter::Value", "alpha::Counter::Bump"));

  // Exports are well-formed and deterministic.
  const std::string json = GraphToJson(g);
  EXPECT_NE(json.find("\"alpha::Counter::Bump\""), std::string::npos);
  EXPECT_EQ(json, GraphToJson(g));
  const std::string dot = GraphToDot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

}  // namespace
}  // namespace snic::lint
