#include "tools/snic_lint/lint.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>

#include "tools/snic_lint/symbol_graph.h"

namespace snic::lint {
namespace {

namespace fs = std::filesystem;

// Rule registries and docs, relative to Options::root.
constexpr const char* kFaultRegistryPath = "tools/snic_lint/fault_sites.txt";
constexpr const char* kSpanRegistryPath = "tools/snic_lint/span_names.txt";
constexpr const char* kLayersPath = "tools/snic_lint/layers.txt";
constexpr const char* kImpureRootsPath = "tools/snic_lint/impure_roots.txt";
constexpr const char* kObsDocPath = "docs/OBSERVABILITY.md";
constexpr const char* kRobustnessDocPath = "docs/ROBUSTNESS.md";

// ---------------------------------------------------------------------------
// Tree loading
// ---------------------------------------------------------------------------

std::string ReadFileOrEmpty(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return "";
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool IsSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp";  // examples/ are .cpp
}

std::vector<std::string> GatherSources(const Options& options) {
  std::vector<std::string> files;
  for (const char* top : {"src", "bench", "tools", "tests", "examples"}) {
    const fs::path dir = fs::path(options.root) / top;
    if (!fs::exists(dir)) {
      continue;
    }
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() &&
          it->path().filename().string() == "lint_fixtures") {
        it.disable_recursion_pending();  // the checker's own bad inputs
        continue;
      }
      if (!it->is_regular_file() || !IsSourceExtension(it->path())) {
        continue;
      }
      files.push_back(
          fs::relative(it->path(), options.root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

// Lines: `<rule> <file>[:<identifier>]`. '#' comments. An entry without an
// identifier allows the rule for the whole file.
struct Allowlist {
  std::set<std::pair<std::string, std::string>> entries;  // (rule, file[:id])

  bool Allows(const std::string& rule, const std::string& file,
              const std::string& identifier) const {
    if (entries.count({rule, file}) != 0) {
      return true;
    }
    return !identifier.empty() &&
           entries.count({rule, file + ":" + identifier}) != 0;
  }
};

Allowlist LoadAllowlist(const Options& options) {
  Allowlist allow;
  std::istringstream in(
      ReadFileOrEmpty(fs::path(options.root) / options.allowlist_path));
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream fields(line);
    std::string rule, target;
    if (fields >> rule >> target) {
      allow.entries.insert({rule, target});
    }
  }
  return allow;
}

// ---------------------------------------------------------------------------
// Impurity kinds (shared between the lexical rules and the transitive pass)
// ---------------------------------------------------------------------------

enum ImpKind { kWallclock = 0, kRng, kUnordered, kOs, kNumKinds };

constexpr const char* kTransitiveRule[kNumKinds] = {
    "no-transitive-wallclock", "no-transitive-rng", "no-transitive-unordered",
    "no-transitive-os"};

constexpr const char* kRootLabel[kNumKinds] = {
    "wall-clock API", "ambient-RNG API", "unordered-container iteration",
    "OS-escape API"};

// One lexical sighting of an impurity: the banned token and, for the
// lexical rules, the exact message they have always reported.
struct Occurrence {
  int line = 0;
  std::string token;    // allowlist identifier / chain tail
  std::string message;  // lexical finding text ("" = no lexical rule here)
};

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool InSimulatedScope(const std::string& path) {
  static constexpr std::string_view kSimulatedDirs[] = {
      "src/sim/", "src/core/", "src/fault/", "src/nf/"};
  for (std::string_view d : kSimulatedDirs) {
    if (StartsWith(path, d)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Shared rule machinery
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(const Options& options) : options_(options) {
    allowlist_ = LoadAllowlist(options);
    const std::vector<std::string> paths = GatherSources(options);
    // Pass 1: tokenize and index every file, in sorted path order.
    indexes_.reserve(paths.size());
    for (const std::string& path : paths) {
      indexes_.push_back(IndexFile(
          Tokenize(path, ReadFileOrEmpty(fs::path(options.root) / path))));
    }
    graph_ = BuildSymbolGraph(indexes_);
    obs_doc_ = ReadFileOrEmpty(fs::path(options_.root) / kObsDocPath);
    robustness_doc_ =
        ReadFileOrEmpty(fs::path(options_.root) / kRobustnessDocPath);
    LoadImpureRoots();
  }

  std::vector<Finding> Run() {
    CollectOccurrences();
    for (const FileIndex& index : indexes_) {
      ReportLexical(index.source);
      CheckMutableStatics(index.source);
    }
    CheckTransitive();
    CheckLayerDag();
    CheckFaultSites();
    CheckMetricNames();
    CheckSpanNames();
    CheckIncludeCycles();
    CheckUnreachedModules();
    CheckStaleSuppressions();  // last: audits every suppression's liveness
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.file, a.line, a.rule, a.message) <
                       std::tie(b.file, b.line, b.rule, b.message);
              });
    return std::move(findings_);
  }

  const SymbolGraph& graph() const { return graph_; }

 private:
  // Suppression lookup that records which allow() comment fired, so the
  // stale-suppression rule can audit the rest.
  bool Suppressed(const SourceFile& file, int line, const std::string& rule) {
    const auto it = file.suppressions.find(line);
    if (it == file.suppressions.end()) {
      return false;
    }
    const auto rit = it->second.find(rule);
    if (rit == it->second.end()) {
      return false;
    }
    used_suppressions_.insert({file.path, rit->second, rule});
    return true;
  }

  void Report(const std::string& rule, const SourceFile& file, int line,
              const std::string& identifier, const std::string& message) {
    if (Suppressed(file, line, rule)) {
      return;
    }
    if (allowlist_.Allows(rule, file.path, identifier)) {
      return;
    }
    findings_.push_back({rule, file.path, line, message});
  }

  // Findings not tied to a scanned file (registry/doc drift).
  void ReportGlobal(const std::string& rule, const std::string& file, int line,
                    const std::string& identifier, const std::string& message) {
    if (allowlist_.Allows(rule, file, identifier)) {
      return;
    }
    findings_.push_back({rule, file, line, message});
  }

  // ---- impurity roots registry -------------------------------------------

  void LoadImpureRoots() {
    // Format: `<kind> <identifier>` per line, kind in {os, wallclock, rng};
    // '#' comments. os identifiers seed no-transitive-os roots; wallclock /
    // rng identifiers extend the built-in banned sets for the transitive
    // pass (the lexical rules keep their historical sets).
    std::istringstream in(
        ReadFileOrEmpty(fs::path(options_.root) / kImpureRootsPath));
    std::string line;
    while (std::getline(in, line)) {
      const size_t hash = line.find('#');
      if (hash != std::string::npos) {
        line = line.substr(0, hash);
      }
      std::istringstream fields(line);
      std::string kind, ident;
      if (!(fields >> kind >> ident)) {
        continue;
      }
      if (kind == "os") {
        os_roots_.insert(ident);
      } else if (kind == "wallclock") {
        extra_wallclock_.insert(ident);
      } else if (kind == "rng") {
        extra_rng_.insert(ident);
      }
    }
  }

  // ---- occurrence collection (every file, scope filters applied later) ----

  void CollectOccurrences() {
    occurrences_.resize(indexes_.size());
    for (size_t i = 0; i < indexes_.size(); ++i) {
      CollectWallclock(indexes_[i].source, &occurrences_[i][kWallclock]);
      CollectRng(indexes_[i].source, &occurrences_[i][kRng]);
      CollectUnordered(indexes_[i].source, &occurrences_[i][kUnordered]);
      CollectOs(indexes_[i].source, &occurrences_[i][kOs]);
    }
  }

  void CollectWallclock(const SourceFile& file, std::vector<Occurrence>* out) {
    static const std::set<std::string, std::less<>> kBanned = {
        "system_clock",   "steady_clock", "high_resolution_clock",
        "gettimeofday",   "clock_gettime", "timespec_get",
        "localtime",      "gmtime",        "mktime",
        "strftime",       "clock",         "time"};
    const auto& toks = file.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) {
        continue;
      }
      const std::string& t = toks[i].text;
      const bool member_access =
          i > 0 && toks[i - 1].kind == TokKind::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == ">");
      if (member_access) {
        continue;  // foo.clock(), p->clock(): a simulated clock, not libc's
      }
      if (kBanned.count(t) == 0 && extra_wallclock_.count(t) == 0) {
        continue;
      }
      // `clock`/`time` only as direct calls; the chrono clock types and
      // POSIX functions are banned as bare identifiers.
      const bool call_like = i + 1 < toks.size() &&
                             toks[i + 1].kind == TokKind::kPunct &&
                             toks[i + 1].text == "(";
      if ((t == "clock" || t == "time") && !call_like) {
        continue;
      }
      out->push_back({toks[i].line, t,
                      "wall-clock API `" + t +
                          "` in a simulated-cycles layer; derive time from "
                          "the scenario clock (FaultPlane::now, replay "
                          "cycles)"});
    }
  }

  void CollectRng(const SourceFile& file, std::vector<Occurrence>* out) {
    // Identifiers that are banned outright: ambient or default-seeded
    // randomness. All randomness must flow from snic::Rng streams seeded
    // via runtime::DeriveTaskSeed.
    static const std::set<std::string, std::less<>> kBannedAlways = {
        "random_device",       "default_random_engine",
        "mt19937",             "mt19937_64",
        "minstd_rand",         "minstd_rand0",
        "ranlux24",            "ranlux48",
        "ranlux24_base",       "ranlux48_base",
        "knuth_b",             "mersenne_twister_engine",
        "linear_congruential_engine", "subtract_with_carry_engine",
        "drand48",             "lrand48",
        "srand",               "rand_r"};
    // Banned only as direct calls (too common as substrings/members).
    static const std::set<std::string, std::less<>> kBannedCalls = {"rand",
                                                                    "random"};
    const auto& toks = file.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) {
        continue;
      }
      const std::string& t = toks[i].text;
      const bool member_access =
          i > 0 && toks[i - 1].kind == TokKind::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == ">");
      if (member_access) {
        continue;
      }
      const bool call_like = i + 1 < toks.size() &&
                             toks[i + 1].kind == TokKind::kPunct &&
                             toks[i + 1].text == "(";
      if (kBannedAlways.count(t) != 0 ||
          (call_like && kBannedCalls.count(t) != 0) ||
          (call_like && extra_rng_.count(t) != 0)) {
        out->push_back({toks[i].line, t,
                        "ambient/default-seeded randomness `" + t +
                            "`; use snic::Rng seeded via "
                            "runtime::DeriveTaskSeed (src/common/rng.h)"});
      }
    }
  }

  // Iteration order over std::unordered_{map,set} depends on hash seeding,
  // bucket counts and insertion history — none of which the replay contract
  // pins — so a range-for (or an explicit .begin() walk) over one is a
  // determinism bug waiting for a rehash. Lookups, counts and size probes
  // stay fine; iterate a sorted copy or use the ordered containers instead.
  void CollectUnordered(const SourceFile& file, std::vector<Occurrence>* out) {
    static const std::set<std::string, std::less<>> kUnorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    static const std::set<std::string, std::less<>> kBeginCalls = {
        "begin", "cbegin", "rbegin", "crbegin"};
    const auto& toks = file.tokens;

    // Pass 1: identifiers declared with an unordered container type in this
    // file (members, locals, parameters). Skip the balanced template
    // argument list, then take the last identifier before the declarator
    // terminator; a '(' first means a function returning the container —
    // not a variable.
    std::set<std::string> tracked;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent ||
          kUnorderedTypes.count(toks[i].text) == 0) {
        continue;
      }
      size_t j = i + 1;
      if (j < toks.size() && toks[j].kind == TokKind::kPunct &&
          toks[j].text == "<") {
        int depth = 1;
        for (++j; j < toks.size() && depth > 0; ++j) {
          if (toks[j].kind != TokKind::kPunct) {
            continue;
          }
          if (toks[j].text == "<") {
            ++depth;
          } else if (toks[j].text == ">") {
            --depth;
          }
        }
      }
      std::string identifier;
      for (; j < toks.size() && j < i + 96; ++j) {
        const Token& t = toks[j];
        if (t.kind == TokKind::kPunct) {
          if (t.text == "(") {
            identifier.clear();  // function declaration, not a variable
            break;
          }
          if (t.text == ";" || t.text == "=" || t.text == "{" ||
              t.text == "," || t.text == ")") {
            break;
          }
          continue;  // &, *, :: qualifiers
        }
        if (t.kind == TokKind::kIdent && t.text != "const") {
          identifier = t.text;
        }
      }
      if (!identifier.empty()) {
        tracked.insert(identifier);
      }
    }
    if (tracked.empty()) {
      return;
    }

    // Pass 2a: range-for whose range expression ends in a tracked
    // identifier — `for (... : table_)`, `for (... : obj.table_)`.
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent || toks[i].text != "for" ||
          toks[i + 1].kind != TokKind::kPunct || toks[i + 1].text != "(") {
        continue;
      }
      int depth = 1;
      bool classic_for = false;
      size_t colon = 0;
      size_t j = i + 2;
      for (; j < toks.size() && depth > 0; ++j) {
        const Token& t = toks[j];
        if (t.kind != TokKind::kPunct) {
          continue;
        }
        if (t.text == "(") {
          ++depth;
        } else if (t.text == ")") {
          --depth;
        } else if (depth == 1 && t.text == ";") {
          classic_for = true;  // init;cond;step — not a range-for
          break;
        } else if (depth == 1 && t.text == ":" && colon == 0) {
          const bool qualifier =
              (j > 0 && toks[j - 1].kind == TokKind::kPunct &&
               toks[j - 1].text == ":") ||
              (j + 1 < toks.size() && toks[j + 1].kind == TokKind::kPunct &&
               toks[j + 1].text == ":");
          if (!qualifier) {
            colon = j;
          }
        }
      }
      if (classic_for || colon == 0 || j < 2) {
        continue;
      }
      const Token& last = toks[j - 2];  // token before the closing ')'
      if (last.kind == TokKind::kIdent && tracked.count(last.text) != 0) {
        out->push_back({toks[i].line, last.text,
                        "range-for over unordered container `" + last.text +
                            "`; iteration order is hash/layout dependent and "
                            "breaks byte-identical replay — iterate a sorted "
                            "copy or use an ordered container"});
      }
    }

    // Pass 2b: explicit iterator walks — `table_.begin()`, `set->cbegin()`.
    // `.end()` alone (idiomatic for find()-miss checks) stays allowed.
    for (size_t i = 2; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent ||
          kBeginCalls.count(toks[i].text) == 0 ||
          toks[i + 1].kind != TokKind::kPunct || toks[i + 1].text != "(") {
        continue;
      }
      std::string base;
      if (toks[i - 1].kind == TokKind::kPunct && toks[i - 1].text == "." &&
          toks[i - 2].kind == TokKind::kIdent) {
        base = toks[i - 2].text;
      } else if (i >= 3 && toks[i - 1].kind == TokKind::kPunct &&
                 toks[i - 1].text == ">" &&
                 toks[i - 2].kind == TokKind::kPunct &&
                 toks[i - 2].text == "-" &&
                 toks[i - 3].kind == TokKind::kIdent) {
        base = toks[i - 3].text;
      }
      if (!base.empty() && tracked.count(base) != 0) {
        out->push_back({toks[i].line, base,
                        "`" + base + "." + toks[i].text +
                            "()` iterates an unordered container; iteration "
                            "order is hash/layout dependent and breaks "
                            "byte-identical replay"});
      }
    }
  }

  void CollectOs(const SourceFile& file, std::vector<Occurrence>* out) {
    if (os_roots_.empty()) {
      return;
    }
    const auto& toks = file.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent ||
          os_roots_.count(toks[i].text) == 0) {
        continue;
      }
      const bool member_access =
          i > 0 && toks[i - 1].kind == TokKind::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == ">");
      const bool call_like = toks[i + 1].kind == TokKind::kPunct &&
                             toks[i + 1].text == "(";
      if (member_access || !call_like) {
        continue;
      }
      out->push_back({toks[i].line, toks[i].text, ""});
    }
  }

  // ---- no-wallclock / no-ambient-rng / no-unordered-iteration -------------

  void ReportLexical(const SourceFile& file) {
    const size_t i = FileIndexOf(file);
    if (InSimulatedScope(file.path)) {
      for (const Occurrence& occ : occurrences_[i][kWallclock]) {
        Report("no-wallclock", file, occ.line, occ.token, occ.message);
      }
      for (const Occurrence& occ : occurrences_[i][kUnordered]) {
        Report("no-unordered-iteration", file, occ.line, occ.token,
               occ.message);
      }
    }
    for (const Occurrence& occ : occurrences_[i][kRng]) {
      Report("no-ambient-rng", file, occ.line, occ.token, occ.message);
    }
  }

  size_t FileIndexOf(const SourceFile& file) const {
    for (size_t i = 0; i < indexes_.size(); ++i) {
      if (&indexes_[i].source == &file) {
        return i;
      }
    }
    return 0;  // unreachable: every caller passes a member of indexes_
  }

  // ---- no-transitive-* ----------------------------------------------------

  // Seeds every function containing an impurity occurrence as a root,
  // propagates reachability backward over the call graph, and reports the
  // *frontier*: a simulated-layer function whose next hop toward the root
  // leaves the simulated layers (direct in-scope uses are the lexical
  // rules' findings — except OS escapes, which have no lexical rule and
  // report even when direct). Suppressions work at any link: on the root's
  // own line they unseed it, on a call-site line they cut that edge, and
  // the allowlist takes `<file>:<qualified-function>`.
  void CheckTransitive() {
    for (int kind = 0; kind < kNumKinds; ++kind) {
      const std::string rule = kTransitiveRule[kind];
      // Roots: first occurrence per enclosing function, in file order.
      std::map<int, Occurrence> direct;  // node -> root occurrence
      for (size_t fi = 0; fi < indexes_.size(); ++fi) {
        for (const Occurrence& occ : occurrences_[fi][kind]) {
          if (Suppressed(indexes_[fi].source, occ.line, rule)) {
            continue;  // vouched pure: unseeds this root
          }
          const int node = graph_.EnclosingFunction(
              indexes_, static_cast<int>(fi), occ.line);
          if (node >= 0) {
            direct.emplace(node, occ);
          }
        }
      }
      if (direct.empty()) {
        continue;
      }
      // Multi-source BFS over reverse edges. next_hop records the first
      // step of each function's chain toward a root; processing order is
      // (BFS layer, node id, sorted in-edges), so chains are deterministic.
      std::map<int, SymbolGraph::Edge> next_hop;  // node -> (callee, line)
      std::vector<int> frontier;
      for (const auto& [node, occ] : direct) {
        frontier.push_back(node);
      }
      while (!frontier.empty()) {
        std::vector<int> next_frontier;
        for (int node : frontier) {
          for (const SymbolGraph::Edge& rev : graph_.in[node]) {
            const int caller = rev.to;
            if (direct.count(caller) != 0 || next_hop.count(caller) != 0) {
              continue;
            }
            const SourceFile& caller_file =
                indexes_[graph_.nodes[caller].file_index].source;
            if (Suppressed(caller_file, rev.line, rule)) {
              continue;  // the chain is audited at this call site
            }
            next_hop[caller] = {node, rev.line};
            next_frontier.push_back(caller);
          }
        }
        std::sort(next_frontier.begin(), next_frontier.end());
        frontier = std::move(next_frontier);
      }
      // Report the in-scope frontier.
      for (int node = 0; node < static_cast<int>(graph_.nodes.size());
           ++node) {
        const SymbolGraph::Node& n = graph_.nodes[node];
        if (!InSimulatedScope(n.file)) {
          continue;
        }
        const SourceFile& file = indexes_[n.file_index].source;
        if (direct.count(node) != 0) {
          if (kind != kOs) {
            continue;  // the lexical rule already reports direct uses
          }
          const Occurrence& occ = direct.at(node);
          Report(rule, file, occ.line, n.qualified,
                 "function `" + n.qualified + "` in a simulated-cycles layer "
                     "calls " + std::string(kRootLabel[kind]) + " `" +
                     occ.token + "` (tools/snic_lint/impure_roots.txt); "
                     "route the effect through an injected dependency");
          continue;
        }
        const auto hop = next_hop.find(node);
        if (hop == next_hop.end()) {
          continue;
        }
        if (InSimulatedScope(graph_.nodes[hop->second.to].file)) {
          continue;  // an inner simulated-layer function owns the finding
        }
        // Build the full chain for the message.
        std::string chain = n.qualified + " (" + n.file + ":" +
                            std::to_string(hop->second.line) + ")";
        std::string root_token;
        int cur = hop->second.to;
        int cur_via = hop->second.line;
        (void)cur_via;
        while (true) {
          const auto d = direct.find(cur);
          if (d != direct.end()) {
            chain += " -> " + graph_.nodes[cur].qualified + " (" +
                     graph_.nodes[cur].file + ":" +
                     std::to_string(d->second.line) + ") -> " +
                     d->second.token;
            root_token = d->second.token;
            break;
          }
          const SymbolGraph::Edge& e = next_hop.at(cur);
          chain += " -> " + graph_.nodes[cur].qualified + " (" +
                   graph_.nodes[cur].file + ":" + std::to_string(e.line) +
                   ")";
          cur = e.to;
        }
        Report(rule, file, hop->second.line, n.qualified,
               "function `" + n.qualified + "` in a simulated-cycles layer "
                   "can transitively reach " +
                   std::string(kRootLabel[kind]) + " `" + root_token +
                   "`; call chain: " + chain);
      }
    }
  }

  // ---- layer-dag ----------------------------------------------------------

  // Enforces the declared module dependency DAG (tools/snic_lint/layers.txt:
  // `<layer>: <allowed dep> ...`) over src/ at two granularities: #include
  // edges and symbol-graph call edges. Inert when the registry is absent
  // (fixture trees without one). Strictly stronger than include-cycle: a
  // cycle cannot be declared (the registry itself is DAG-checked), and even
  // acyclic-but-undeclared edges are findings.
  void CheckLayerDag() {
    const std::string reg_text =
        ReadFileOrEmpty(fs::path(options_.root) / kLayersPath);
    if (reg_text.empty()) {
      return;
    }
    std::map<std::string, std::set<std::string>> deps;
    {
      std::istringstream in(reg_text);
      std::string line;
      while (std::getline(in, line)) {
        const size_t hash = line.find('#');
        if (hash != std::string::npos) {
          line = line.substr(0, hash);
        }
        const size_t colon = line.find(':');
        if (colon == std::string::npos) {
          continue;
        }
        std::istringstream name_in(line.substr(0, colon));
        std::string name;
        if (!(name_in >> name)) {
          continue;
        }
        std::set<std::string>& allowed = deps[name];
        std::istringstream deps_in(line.substr(colon + 1));
        std::string dep;
        while (deps_in >> dep) {
          allowed.insert(dep);
        }
      }
    }

    // The declared graph must itself be a DAG.
    {
      std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
      std::function<bool(const std::string&, std::vector<std::string>&)>
          visit = [&](const std::string& node,
                      std::vector<std::string>& path) -> bool {
        color[node] = 1;
        path.push_back(node);
        const auto it = deps.find(node);
        if (it != deps.end()) {
          for (const std::string& next : it->second) {
            if (color[next] == 1) {
              path.push_back(next);
              return true;
            }
            if (color[next] == 0 && deps.count(next) != 0 &&
                visit(next, path)) {
              return true;
            }
          }
        }
        path.pop_back();
        color[node] = 2;
        return false;
      };
      for (const auto& [name, allowed] : deps) {
        std::vector<std::string> path;
        if (color[name] == 0 && visit(name, path)) {
          std::string cycle;
          for (const std::string& p : path) {
            cycle += (cycle.empty() ? "" : " -> ") + p;
          }
          ReportGlobal("layer-dag", kLayersPath, 0, path.back(),
                       "declared layer dependencies contain a cycle: " +
                           cycle);
          return;  // a cyclic declaration makes edge checks meaningless
        }
      }
    }

    auto layer_of = [](const std::string& path) -> std::string {
      if (!StartsWith(path, "src/")) {
        return "";
      }
      const size_t next = path.find('/', 4);
      if (next == std::string::npos) {
        return "";  // src/snic.h: the umbrella header has no layer
      }
      return path.substr(4, next - 4);
    };

    // Layer inventory drift: every src/<dir> must be declared, every
    // declared layer must still exist.
    std::set<std::string> seen_layers;
    for (const FileIndex& index : indexes_) {
      const std::string layer = layer_of(index.source.path);
      if (layer.empty()) {
        continue;
      }
      if (seen_layers.insert(layer).second && deps.count(layer) == 0) {
        ReportGlobal("layer-dag", kLayersPath, 0, layer,
                     "layer `" + layer + "` (src/" + layer +
                         "/) is not declared in " + kLayersPath);
      }
    }
    for (const auto& [name, allowed] : deps) {
      if (seen_layers.count(name) == 0) {
        ReportGlobal("layer-dag", kLayersPath, 0, name,
                     "registry declares layer `" + name +
                         "` but src/ has no such module (stale entry?)");
      }
      for (const std::string& dep : allowed) {
        if (deps.count(dep) == 0) {
          ReportGlobal("layer-dag", kLayersPath, 0, dep,
                       "layer `" + name + "` depends on undeclared layer `" +
                           dep + "`");
        }
      }
    }

    auto allowed_dep = [&](const std::string& from, const std::string& to) {
      if (from == to) {
        return true;
      }
      const auto it = deps.find(from);
      return it != deps.end() && it->second.count(to) != 0;
    };

    // Include-edge granularity.
    for (const FileIndex& index : indexes_) {
      const std::string from = layer_of(index.source.path);
      if (from.empty() || deps.count(from) == 0) {
        continue;
      }
      for (const auto& inc : index.source.includes) {
        const std::string to = layer_of(inc.first);
        if (to.empty() || allowed_dep(from, to)) {
          continue;
        }
        Report("layer-dag", index.source, inc.second, "src/" + to,
               "#include crosses the layer DAG: `" + from +
                   "` may not depend on `" + to + "` (" +
                   kLayersPath + " allows: " +
                   JoinDeps(deps.at(from)) + ")");
      }
    }

    // Call-edge granularity — catches dependencies smuggled through forward
    // declarations, where no #include betrays the edge.
    for (int id = 0; id < static_cast<int>(graph_.nodes.size()); ++id) {
      const SymbolGraph::Node& caller = graph_.nodes[id];
      const std::string from = layer_of(caller.file);
      if (from.empty() || deps.count(from) == 0) {
        continue;
      }
      std::set<std::pair<int, std::string>> reported;  // (line, to-layer)
      for (const SymbolGraph::Edge& e : graph_.out[id]) {
        if (e.fuzzy) {
          continue;  // heuristic match; include-granularity covers the real edge
        }
        const SymbolGraph::Node& callee = graph_.nodes[e.to];
        const std::string to = layer_of(callee.file);
        if (to.empty() || allowed_dep(from, to)) {
          continue;
        }
        if (!reported.insert({e.line, to}).second) {
          continue;
        }
        Report("layer-dag", indexes_[caller.file_index].source, e.line,
               caller.qualified,
               "call crosses the layer DAG: `" + caller.qualified + "` (" +
                   from + ") calls `" + callee.qualified + "` (" + to +
                   ", " + callee.file + ":" + std::to_string(callee.line) +
                   "); " + kLayersPath + " allows `" + from +
                   "` -> " + JoinDeps(deps.at(from)));
      }
    }
  }

  static std::string JoinDeps(const std::set<std::string>& deps) {
    if (deps.empty()) {
      return "{}";
    }
    std::string out = "{";
    for (const std::string& d : deps) {
      out += (out.size() == 1 ? "" : ", ") + d;
    }
    return out + "}";
  }

  // ---- stale-suppression --------------------------------------------------

  // Every inline `snic-lint: allow(rule)` must have silenced at least one
  // finding (or cut a transitive chain / unseeded a root) this run;
  // suppressions that do nothing rot into false documentation and hide
  // future regressions, exactly like stale allowlist entries — which the
  // allowlist-liveness test already catches.
  void CheckStaleSuppressions() {
    for (const FileIndex& index : indexes_) {
      const SourceFile& file = index.source;
      std::set<std::pair<int, std::string>> declared;  // (origin, rule)
      for (const auto& by_line : file.suppressions) {
        for (const auto& entry : by_line.second) {
          declared.insert({entry.second, entry.first});
        }
      }
      for (const auto& [origin, rule] : declared) {
        if (used_suppressions_.count({file.path, origin, rule}) != 0) {
          continue;
        }
        Report("stale-suppression", file, origin, rule,
               "`snic-lint: allow(" + rule + ")` suppresses nothing — "
                   "remove the stale suppression (or fix the rule name)");
      }
    }
  }

  // ---- no-mutable-file-static --------------------------------------------

  void CheckMutableStatics(const SourceFile& file) {
    if (!(StartsWith(file.path, "src/") || StartsWith(file.path, "bench/") ||
          StartsWith(file.path, "tools/"))) {
      return;
    }
    const auto& toks = file.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent ||
          !(toks[i].text == "static" || toks[i].text == "thread_local")) {
        continue;
      }
      // `static thread_local` / `thread_local static`: handle once.
      if (i > 0 && toks[i - 1].kind == TokKind::kIdent &&
          (toks[i - 1].text == "static" ||
           toks[i - 1].text == "thread_local")) {
        continue;
      }
      if (i > 0 && toks[i - 1].kind == TokKind::kIdent &&
          toks[i - 1].text == "extern") {
        continue;  // extern declaration, storage lives elsewhere
      }
      // Scan the declaration: the first of `(` `;` `=` `{` decides whether
      // this is a function (paren first) or a variable.
      bool is_const = false;
      std::string identifier;
      bool decided = false;
      bool is_variable = false;
      int decl_line = toks[i].line;
      for (size_t j = i + 1; j < toks.size() && j < i + 64; ++j) {
        const Token& t = toks[j];
        if (t.kind == TokKind::kPunct) {
          if (t.text == "(") {
            decided = true;  // function declaration/definition
            break;
          }
          if (t.text == ";" || t.text == "=" || t.text == "{" ||
              t.text == "[") {
            decided = true;
            is_variable = true;
            break;
          }
          continue;
        }
        if (t.kind == TokKind::kIdent) {
          if (t.text == "const" || t.text == "constexpr") {
            is_const = true;
          } else if (t.text == "class" || t.text == "struct" ||
                     t.text == "union" || t.text == "enum") {
            decided = true;  // type definition, not a variable
            break;
          } else {
            identifier = t.text;
            decl_line = t.line;
          }
        }
      }
      if (!decided || !is_variable || is_const) {
        continue;
      }
      Report("no-mutable-file-static", file, decl_line, identifier,
             "mutable `" + toks[i].text + "` state `" + identifier +
                 "`; shared mutable statics break schedule-invariance — "
                 "pass state explicitly or add an audited allowlist entry");
    }
  }

  // ---- fault-site-registry ------------------------------------------------

  struct SiteConstant {
    std::string value;
    std::string file;
    int line;
  };

  void CheckFaultSites() {
    // Collect every `string_view kName = "value"` constant.
    std::map<std::string, std::vector<SiteConstant>> constants;
    for (const FileIndex& index : indexes_) {
      const SourceFile& file = index.source;
      const auto& toks = file.tokens;
      for (size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].kind == TokKind::kIdent &&
            toks[i].text == "string_view" &&
            toks[i + 1].kind == TokKind::kIdent &&
            toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "=" &&
            toks[i + 3].kind == TokKind::kString) {
          constants[toks[i + 1].text].push_back(
              {toks[i + 3].text, file.path, toks[i + 1].line});
        }
      }
    }

    // Canonical sites: constants declared in src/fault/fault.h.
    std::map<std::string, SiteConstant> used_sites;  // value -> first decl
    for (const auto& [name, decls] : constants) {
      for (const SiteConstant& decl : decls) {
        if (decl.file == "src/fault/fault.h") {
          used_sites.emplace(decl.value, decl);
        }
      }
    }

    // Macro uses: resolve the site argument to a constant or a literal.
    for (const FileIndex& index : indexes_) {
      const SourceFile& file = index.source;
      const auto& toks = file.tokens;
      for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::kIdent ||
            (toks[i].text != "SNIC_FAULT_FIRES" &&
             toks[i].text != "SNIC_FAULT_STALL" &&
             toks[i].text != "SNIC_FAULT_FIRES_ATTEMPT") ||
            toks[i + 1].text != "(") {
          continue;
        }
        if (file.path == "src/fault/fault.h") {
          continue;  // the macro definitions themselves
        }
        // The site expression: tokens up to the ',' at depth 1.
        int depth = 1;
        std::string last_ident;
        std::string literal;
        size_t j = i + 2;
        for (; j < toks.size() && depth > 0; ++j) {
          const Token& t = toks[j];
          if (t.kind == TokKind::kPunct) {
            if (t.text == "(") {
              ++depth;
            } else if (t.text == ")") {
              --depth;
            } else if (t.text == "," && depth == 1) {
              break;
            }
          } else if (t.kind == TokKind::kIdent) {
            last_ident = t.text;
          } else if (t.kind == TokKind::kString) {
            literal = t.text;
          }
        }
        std::string value;
        if (!literal.empty()) {
          value = literal;
        } else if (!last_ident.empty()) {
          const auto decl = constants.find(last_ident);
          if (decl == constants.end()) {
            Report("fault-site-registry", file, toks[i].line, last_ident,
                   "cannot resolve fault site `" + last_ident +
                       "` to a string_view constant; sites must be named "
                       "constants so the registry can audit them");
            continue;
          }
          value = decl->second.front().value;
          used_sites.emplace(
              value, SiteConstant{value, file.path, toks[i].line});
        } else {
          Report("fault-site-registry", file, toks[i].line, "",
                 "fault site argument is neither a constant nor a literal");
          continue;
        }
      }
    }

    // Uniqueness: two distinct constants must not share a site string.
    std::map<std::string, std::vector<std::string>> by_value;
    for (const auto& [name, decls] : constants) {
      for (const SiteConstant& decl : decls) {
        if (used_sites.count(decl.value) != 0) {
          by_value[decl.value].push_back(name + " (" + decl.file + ")");
        }
      }
    }
    for (const auto& [value, names] : by_value) {
      std::set<std::string> unique(names.begin(), names.end());
      if (unique.size() > 1) {
        std::string joined;
        for (const std::string& n : unique) {
          joined += (joined.empty() ? "" : ", ") + n;
        }
        ReportGlobal("fault-site-registry", used_sites.at(value).file,
                     used_sites.at(value).line, value,
                     "fault site string \"" + value +
                         "\" is declared by multiple constants: " + joined);
      }
    }

    if (used_sites.empty()) {
      return;  // tree without fault sites: nothing to audit
    }

    // Registry file: exactly the set of known site strings.
    const fs::path reg_path = fs::path(options_.root) / kFaultRegistryPath;
    if (!fs::exists(reg_path)) {
      ReportGlobal("fault-site-registry", kFaultRegistryPath, 0, "",
                   "fault-site registry file is missing but " +
                       std::to_string(used_sites.size()) +
                       " sites are declared/used");
      return;
    }
    std::set<std::string> registered;
    {
      std::istringstream in(ReadFileOrEmpty(reg_path));
      std::string line;
      while (std::getline(in, line)) {
        const size_t hash = line.find('#');
        if (hash != std::string::npos) {
          line = line.substr(0, hash);
        }
        std::istringstream fields(line);
        std::string site;
        if (fields >> site) {
          registered.insert(site);
        }
      }
    }
    for (const auto& [value, decl] : used_sites) {
      if (registered.count(value) == 0) {
        ReportGlobal("fault-site-registry", decl.file, decl.line, value,
                     "fault site \"" + value + "\" is not listed in " +
                         kFaultRegistryPath);
      }
      if (!robustness_doc_.empty() &&
          robustness_doc_.find(value) == std::string::npos) {
        ReportGlobal("fault-site-registry", decl.file, decl.line, value,
                     "fault site \"" + value + "\" is not documented in " +
                         kRobustnessDocPath);
      }
    }
    for (const std::string& site : registered) {
      if (used_sites.count(site) == 0) {
        ReportGlobal("fault-site-registry", kFaultRegistryPath, 0,
                     site,
                     "registry lists \"" + site +
                         "\" but no such site is declared or used (stale "
                         "entry?)");
      }
    }
  }

  // ---- metric-name-drift --------------------------------------------------

  void CheckMetricNames() {
    static const std::set<std::string, std::less<>> kCreators = {
        "GetCounter", "GetGauge",   "GetHistogram", "AddComplete",
        "AddInstant", "AddCounter", "Emit"};
    for (const FileIndex& index : indexes_) {
      const SourceFile& file = index.source;
      if (!(StartsWith(file.path, "src/") ||
            StartsWith(file.path, "bench/"))) {
        continue;
      }
      const auto& toks = file.tokens;
      for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::kIdent ||
            kCreators.count(toks[i].text) == 0 || toks[i + 1].text != "(" ||
            toks[i + 2].kind != TokKind::kString) {
          continue;
        }
        const std::string& name = toks[i + 2].text;
        if (name.empty()) {
          continue;
        }
        if (obs_doc_.find(name) == std::string::npos) {
          Report("metric-name-drift", file, toks[i + 2].line, name,
                 "metric/trace name \"" + name + "\" is not documented in " +
                     kObsDocPath);
        }
      }
    }
  }

  // ---- span-name-registry -------------------------------------------------

  void CheckSpanNames() {
    // Constants that can satisfy an Intern argument: every
    // `string_view kName = "value"` in the tree (first declaration wins).
    std::map<std::string, SiteConstant> constants;
    for (const FileIndex& index : indexes_) {
      const SourceFile& file = index.source;
      const auto& toks = file.tokens;
      for (size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].kind == TokKind::kIdent &&
            toks[i].text == "string_view" &&
            toks[i + 1].kind == TokKind::kIdent &&
            toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "=" &&
            toks[i + 3].kind == TokKind::kString) {
          constants.emplace(
              toks[i + 1].text,
              SiteConstant{toks[i + 3].text, file.path, toks[i + 1].line});
        }
      }
    }

    // Every TraceRing::Intern call in instrumented layers registers a span
    // or arg-key name. tools/ and tests/ intern freely (decoys, fixtures);
    // the ring's own translation units declare/define Intern itself.
    std::map<std::string, SiteConstant> used;  // name string -> first use
    for (const FileIndex& index : indexes_) {
      const SourceFile& file = index.source;
      if (!(StartsWith(file.path, "src/") ||
            StartsWith(file.path, "bench/"))) {
        continue;
      }
      if (file.path == "src/obs/trace_ring.h" ||
          file.path == "src/obs/trace_ring.cc") {
        continue;
      }
      const auto& toks = file.tokens;
      for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::kIdent || toks[i].text != "Intern" ||
            toks[i + 1].text != "(") {
          continue;
        }
        // The argument expression: tokens to the call's closing paren.
        int depth = 1;
        std::string last_ident;
        std::string literal;
        for (size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
          const Token& t = toks[j];
          if (t.kind == TokKind::kPunct) {
            if (t.text == "(") {
              ++depth;
            } else if (t.text == ")") {
              --depth;
            } else if (t.text == "," && depth == 1) {
              break;
            }
          } else if (t.kind == TokKind::kIdent) {
            last_ident = t.text;
          } else if (t.kind == TokKind::kString) {
            literal = t.text;
          }
        }
        std::string value;
        if (!literal.empty()) {
          value = literal;
        } else if (!last_ident.empty()) {
          const auto decl = constants.find(last_ident);
          if (decl == constants.end()) {
            Report("span-name-registry", file, toks[i].line, last_ident,
                   "cannot resolve span name `" + last_ident +
                       "` to a string_view constant or literal; span names "
                       "must be auditable at lint time");
            continue;
          }
          value = decl->second.value;
        } else {
          Report("span-name-registry", file, toks[i].line, "",
                 "span name argument is neither a constant nor a literal");
          continue;
        }
        if (Suppressed(file, toks[i].line, "span-name-registry")) {
          continue;  // suppressed uses don't register the name either
        }
        used.emplace(value, SiteConstant{value, file.path, toks[i].line});
      }
    }

    if (used.empty()) {
      return;  // tree without ring instrumentation: nothing to audit
    }

    const fs::path reg_path = fs::path(options_.root) / kSpanRegistryPath;
    if (!fs::exists(reg_path)) {
      ReportGlobal("span-name-registry", kSpanRegistryPath, 0, "",
                   "span-name registry file is missing but " +
                       std::to_string(used.size()) + " names are interned");
      return;
    }
    std::set<std::string> registered;
    {
      std::istringstream in(ReadFileOrEmpty(reg_path));
      std::string line;
      while (std::getline(in, line)) {
        const size_t hash = line.find('#');
        if (hash != std::string::npos) {
          line = line.substr(0, hash);
        }
        std::istringstream fields(line);
        std::string name;
        if (fields >> name) {
          registered.insert(name);
        }
      }
    }
    for (const auto& [value, decl] : used) {
      if (registered.count(value) == 0) {
        ReportGlobal("span-name-registry", decl.file, decl.line, value,
                     "span name \"" + value + "\" is not listed in " +
                         kSpanRegistryPath);
      }
      if (!obs_doc_.empty() && obs_doc_.find(value) == std::string::npos) {
        ReportGlobal("span-name-registry", decl.file, decl.line, value,
                     "span name \"" + value + "\" is not documented in " +
                         kObsDocPath);
      }
    }
    for (const std::string& name : registered) {
      if (used.count(name) == 0) {
        ReportGlobal("span-name-registry", kSpanRegistryPath, 0,
                     name,
                     "registry lists \"" + name +
                         "\" but no instrumentation interns it (stale "
                         "entry?)");
      }
    }
  }

  // ---- include-cycle ------------------------------------------------------

  void CheckIncludeCycles() {
    // Graph over src/ files; edges follow the repo-root include style.
    std::map<std::string, std::vector<std::string>> include_graph;
    std::map<std::string, const SourceFile*> by_path;
    for (const FileIndex& index : indexes_) {
      const SourceFile& file = index.source;
      if (!StartsWith(file.path, "src/")) {
        continue;
      }
      by_path[file.path] = &file;
      for (const auto& inc : file.includes) {
        if (StartsWith(inc.first, "src/")) {
          include_graph[file.path].push_back(inc.first);
        }
      }
    }
    // Iterative DFS with tri-color marking; report each cycle once.
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    std::set<std::string> reported;

    std::function<void(const std::string&)> visit =
        [&](const std::string& node) {
          color[node] = 1;
          stack.push_back(node);
          for (const std::string& next : include_graph[node]) {
            if (color[next] == 1) {
              // Found a cycle: slice it out of the stack.
              auto it = std::find(stack.begin(), stack.end(), next);
              std::string cycle;
              std::string key_min = next;
              for (; it != stack.end(); ++it) {
                cycle += *it + " -> ";
                key_min = std::min(key_min, *it);
              }
              cycle += next;
              if (reported.insert(key_min).second) {
                const SourceFile* origin = by_path.count(node) != 0
                                               ? by_path.at(node)
                                               : nullptr;
                int line = 0;
                if (origin != nullptr) {
                  for (const auto& inc : origin->includes) {
                    if (inc.first == next) {
                      line = inc.second;
                      break;
                    }
                  }
                }
                ReportGlobal("include-cycle", node, line, next,
                             "#include cycle: " + cycle);
              }
            } else if (color[next] == 0 && by_path.count(next) != 0) {
              visit(next);
            }
          }
          stack.pop_back();
          color[node] = 2;
        };
    for (const auto& [node, file] : by_path) {
      if (color[node] == 0) {
        visit(node);
      }
    }
  }

  // ---- unreached-module ---------------------------------------------------

  // A src/ header that no bench/, tools/ or examples/ file reaches through
  // #include edges runs only under tests. A reached header reaches its
  // same-named .cc. Edges out of the src/snic.h umbrella are ignored: one
  // include of it would otherwise reach every module. Inert in a tree with
  // no such roots.
  void CheckUnreachedModules() {
    std::map<std::string, const SourceFile*> by_path;
    std::vector<std::string> frontier;
    for (const FileIndex& index : indexes_) {
      const std::string& path = index.source.path;
      by_path[path] = &index.source;
      if (StartsWith(path, "bench/") || StartsWith(path, "tools/") ||
          StartsWith(path, "examples/")) {
        frontier.push_back(path);
      }
    }
    if (frontier.empty()) {
      return;
    }
    std::set<std::string> reached(frontier.begin(), frontier.end());
    auto reach = [&](const std::string& path) {
      if (by_path.count(path) != 0 && reached.insert(path).second) {
        frontier.push_back(path);
      }
    };
    auto is_header = [](const std::string& path) {
      return fs::path(path).extension() == ".h";
    };
    while (!frontier.empty()) {
      const std::string path = frontier.back();
      frontier.pop_back();
      if (is_header(path)) {
        reach(path.substr(0, path.size() - 2) + ".cc");
      }
      if (path == "src/snic.h") {
        continue;
      }
      for (const auto& inc : by_path.at(path)->includes) {
        reach(inc.first);
      }
    }
    for (const auto& [path, file] : by_path) {
      if (StartsWith(path, "src/") && is_header(path) &&
          reached.count(path) == 0) {
        Report("unreached-module", *file, 0, "",
               "no bench/, tools/ or examples/ file reaches this header "
               "through #include: only tests use the module");
      }
    }
  }

  Options options_;
  Allowlist allowlist_;
  std::vector<FileIndex> indexes_;
  SymbolGraph graph_;
  std::vector<std::array<std::vector<Occurrence>, kNumKinds>> occurrences_;
  std::set<std::string> os_roots_;
  std::set<std::string> extra_wallclock_;
  std::set<std::string> extra_rng_;
  // (file, allow-comment origin line, rule) triples that silenced at least
  // one finding, cut a chain edge, or unseeded a root this run.
  std::set<std::tuple<std::string, int, std::string>> used_suppressions_;
  std::string obs_doc_;
  std::string robustness_doc_;
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<Finding> RunLint(const Options& options) {
  Linter linter(options);
  std::vector<Finding> findings = linter.Run();
  if (!options.graph_out.empty()) {
    const bool dot =
        options.graph_out.size() > 4 &&
        options.graph_out.compare(options.graph_out.size() - 4, 4, ".dot") ==
            0;
    std::ofstream out(options.graph_out, std::ios::binary);
    out << (dot ? GraphToDot(linter.graph()) : GraphToJson(linter.graph()));
  }
  return findings;
}

std::string FormatFindings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": " + f.rule + ": " +
           f.message + "\n";
  }
  return out;
}

}  // namespace snic::lint
