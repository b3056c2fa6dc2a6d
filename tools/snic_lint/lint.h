// snic_lint: static enforcement of the repo's isolation & determinism
// invariants (docs/STATIC_ANALYSIS.md).
//
// The S-NIC reproduction's headline guarantees — byte-identical replay at
// any --jobs count, cross-NF isolation even under injected faults — rest on
// source-level conventions: no wall-clock reads in simulated paths, no
// ambient RNG, no mutable file statics, fault sites and metric names that
// match their registries and docs. This checker turns those conventions
// into machine-checked rules over a small tokenizer (no libclang), run as a
// CTest (`ctest -R lint`) and as a blocking CI job.
//
// v2 is a two-pass whole-tree analyzer: pass 1 indexes every function
// definition and call site into a symbol graph
// (tools/snic_lint/symbol_graph.h); pass 2 runs the lexical rules plus
// reachability rules over that graph.
//
// Rule families (each suppressible per line with `// snic-lint: allow(rule)`
// or per entity via tools/snic_lint/allowlist.txt):
//   no-wallclock            wall-clock APIs in src/sim, src/core, src/fault,
//                           src/nf — those layers run on simulated cycles
//   no-ambient-rng          rand()/std::random_device/std engines anywhere —
//                           randomness derives from common/rng.h streams
//   no-mutable-file-static  mutable static/thread_local declarations outside
//                           the audited allowlist
//   no-unordered-iteration  range-for or .begin()-family walks over
//                           std::unordered_{map,set} in the simulated layers
//                           — iteration order is hash/layout dependent and
//                           breaks byte-identical replay
//   no-transitive-wallclock a simulated-layer function that can *reach* a
//   no-transitive-rng       wall-clock / ambient-RNG / unordered-iteration /
//   no-transitive-unordered OS-escape (tools/snic_lint/impure_roots.txt)
//   no-transitive-os        impurity through any chain of in-tree calls —
//                           the lexical rules only see direct uses; these
//                           report the full call chain and are suppressible
//                           at any link of it
//   layer-dag               the declared module dependency DAG
//                           (tools/snic_lint/layers.txt) enforced at both
//                           #include and call-edge granularity — strictly
//                           stronger than include-cycle
//   stale-suppression       an inline `snic-lint: allow(rule)` that
//                           suppresses nothing is itself a finding
//   fault-site-registry     SNIC_FAULT_FIRES/STALL/FIRES_ATTEMPT sites:
//                           named constants, globally unique strings, listed
//                           in tools/snic_lint/fault_sites.txt and
//                           docs/ROBUSTNESS.md
//   metric-name-drift       literal metric/trace names documented in
//                           docs/OBSERVABILITY.md
//   span-name-registry      TraceRing::Intern span/arg names in src/ and
//                           bench/: literals or named constants resolvable
//                           at lint time, listed in
//                           tools/snic_lint/span_names.txt
//   include-cycle           no #include cycles across src/
//   unreached-module        a src/ header that no bench/, tools/ or
//                           examples/ file reaches through #include edges
//                           (a header reaches its same-named .cc; edges out
//                           of the src/snic.h umbrella do not count)

#ifndef SNIC_TOOLS_SNIC_LINT_LINT_H_
#define SNIC_TOOLS_SNIC_LINT_LINT_H_

#include <string>
#include <vector>

namespace snic::lint {

struct Finding {
  std::string rule;
  std::string file;  // repo-relative, '/' separators
  int line = 0;      // 1-based; 0 when the finding is not tied to a line
  std::string message;
};

struct Options {
  // Tree root. Rules scan the .h, .cc and .cpp files of src/, bench/, tools/,
  // tests/ and examples/ below it (skipping any directory named lint_fixtures, which holds the
  // checker's own known-bad test inputs).
  std::string root = ".";

  // Relative to `root`; a missing allowlist is treated as empty. The rule
  // registries and docs (tools/snic_lint/*.txt, docs/OBSERVABILITY.md,
  // docs/ROBUSTNESS.md) sit at fixed paths below `root` and only matter
  // when a rule needs them: no layers.txt means the layer-dag rule is
  // inert, and no impure_roots.txt means no OS-escape roots are seeded.
  std::string allowlist_path = "tools/snic_lint/allowlist.txt";

  // When non-empty, the whole-tree call graph is written here after the
  // run: a path ending in ".dot" gets Graphviz, anything else JSON.
  std::string graph_out;
};

// Runs every rule over the tree; findings are sorted by (file, line, rule).
// Findings suppressed inline or via the allowlist are not returned.
std::vector<Finding> RunLint(const Options& options);

// "file:line: rule: message" lines, one per finding.
std::string FormatFindings(const std::vector<Finding>& findings);

}  // namespace snic::lint

#endif  // SNIC_TOOLS_SNIC_LINT_LINT_H_
