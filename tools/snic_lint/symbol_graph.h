// Pass 1 of snic_lint's whole-tree analysis (docs/STATIC_ANALYSIS.md):
// the source model (tokenizer, suppressions, includes) and a tokenizer-based
// symbol indexer that turns every file into a list of function/method
// definitions with their enclosing namespace/class scope and the call sites
// inside each body. `BuildSymbolGraph` merges the per-file indexes into a
// deterministic call graph that pass 2 (tools/snic_lint/lint.cc) uses for
// the transitive-impurity (`no-transitive-*`) and `layer-dag` rules, and
// that `--graph-out=dot|json` exports for DESIGN.md and forensics.
//
// Like the rest of snic_lint this is heuristic tokenization, not libclang:
// good enough to index the repo's own idiom (free functions, out-of-class
// method definitions, constructors with init lists, overloads, calls
// through using-declarations), deliberately conservative where C++ is
// ambiguous. Resolution prefers scope-accurate matches (own class methods,
// enclosing-namespace free functions, using-imported names) and falls back
// to a name-union only when no scoped candidate exists, so reachability
// errs toward reporting.

#ifndef SNIC_TOOLS_SNIC_LINT_SYMBOL_GRAPH_H_
#define SNIC_TOOLS_SNIC_LINT_SYMBOL_GRAPH_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace snic::lint {

// ---------------------------------------------------------------------------
// Source model
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kPunct };

struct Token {
  TokKind kind;
  std::string text;  // for kString: the literal's contents, quotes stripped
  int line;
};

struct SourceFile {
  std::string path;  // repo-relative
  std::vector<Token> tokens;
  // line -> rule -> origin line of the `snic-lint: allow(...)` comment that
  // established the suppression (a comment alone on its line also covers
  // the following line, with the same origin). The origin is what the
  // stale-suppression rule audits: every comment must suppress something.
  std::map<int, std::map<std::string, int>> suppressions;
  // #include "..." targets with their line numbers.
  std::vector<std::pair<std::string, int>> includes;
};

// Tokenizes C++ accurately enough for the rules: comments and string/char
// literals are recognized (including raw strings), preprocessor lines are
// scanned for #include, and everything else becomes ident/number/punct
// tokens with line numbers.
SourceFile Tokenize(const std::string& path, const std::string& text);

// ---------------------------------------------------------------------------
// Per-file symbol index (pass 1, parallelizable per file)
// ---------------------------------------------------------------------------

struct CallSite {
  // The callee as written, split on `::`: `util::Now(...)` -> {util, Now}.
  std::vector<std::string> segments;
  bool member_access = false;  // obj.F(...) / ptr->F(...) / this->F(...)
  int line = 0;
};

struct FunctionDef {
  std::string name;        // last segment, e.g. "Now"
  std::string qualified;   // scope-qualified, e.g. "util::Clock::Now"
  std::string class_name;  // enclosing (or declarator-qualified) class, or ""
  std::string scope;       // namespace scope only, e.g. "util" ("" = global)
  std::string file;
  int line = 0;            // line of the function name
  int body_begin = 0;      // line of the body '{'
  int body_end = 0;        // line of the matching '}'
  bool is_method = false;
  std::vector<CallSite> calls;
};

struct FileIndex {
  SourceFile source;
  std::vector<FunctionDef> defs;
  // Names imported by `using ns::Name;` declarations, fully qualified.
  std::vector<std::string> usings;
};

// Indexes one tokenized file. Pure function of its input.
FileIndex IndexFile(SourceFile source);

// ---------------------------------------------------------------------------
// Whole-tree symbol graph (deterministic merge of the per-file indexes)
// ---------------------------------------------------------------------------

struct SymbolGraph {
  struct Node {
    std::string qualified;
    std::string file;
    int line = 0;
    bool is_method = false;
    int file_index = 0;  // into the FileIndex vector passed to Build
    int def_index = 0;   // into that file's defs
  };
  struct Edge {
    int to = 0;    // callee node id
    int line = 0;  // call-site line in the caller's file
    // True when resolution was heuristic: a member-access call matched to a
    // *foreign* class's method, or the name-union fallback. Reachability
    // rules keep fuzzy edges (erring toward reporting); layer-dag skips
    // them — a member call needs the complete type, so any real cross-layer
    // member dependency is already caught at #include granularity.
    bool fuzzy = false;
  };

  std::vector<Node> nodes;              // file order, then definition order
  std::vector<std::vector<Edge>> out;   // nodes.size() entries, sorted
  std::vector<std::vector<Edge>> in;    // reverse edges (Edge.to = caller)

  // Innermost function whose body spans `line` of file `file_index`; -1
  // when the line is outside every indexed body.
  int EnclosingFunction(const std::vector<FileIndex>& files, int file_index,
                        int line) const;
};

SymbolGraph BuildSymbolGraph(const std::vector<FileIndex>& files);

// Graph exports for --graph-out. Deterministic: nodes in id order, edges
// sorted. The JSON form also carries per-node layer (2nd path component)
// so forensics can slice by module.
std::string GraphToJson(const SymbolGraph& graph);
std::string GraphToDot(const SymbolGraph& graph);

}  // namespace snic::lint

#endif  // SNIC_TOOLS_SNIC_LINT_SYMBOL_GRAPH_H_
