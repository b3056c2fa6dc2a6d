// Aho-Corasick multi-pattern matching automaton.
//
// This is the matching graph at the heart of the DPI accelerator (§3.3,
// §4.3, Fig. 3) and of the DPI network function (§5.1, which the paper
// implements with the SIMD-accelerated `aho_corasick` Rust crate over 33,471
// patterns from six open-source rulesets). The automaton is built once from
// the ruleset, stored in the function's RAM ("the complete DPI graph"), and
// walked byte-by-byte by accelerator hardware threads that cache hot nodes
// in SRAM.

#ifndef SNIC_ACCEL_AHO_CORASICK_H_
#define SNIC_ACCEL_AHO_CORASICK_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace snic::accel {

struct MatchResult {
  uint64_t match_count = 0;        // total pattern occurrences
  uint64_t bytes_scanned = 0;
  uint32_t first_pattern = UINT32_MAX;  // id of the first match, if any

  bool Matched() const { return match_count > 0; }
};

class AhoCorasick {
 public:
  // Builds the automaton from `patterns`. Empty patterns are rejected
  // (SNIC_CHECK). Pattern ids are their indices in the input vector.
  explicit AhoCorasick(const std::vector<std::string>& patterns);

  // Scans `data`, counting every pattern occurrence (including overlapping
  // ones via dictionary suffix links).
  MatchResult Scan(std::span<const uint8_t> data) const;

  // Scan that stops at the first match (firewall/IDS drop decision). Same
  // answer as Scan's first match, with bytes_scanned ending at it.
  MatchResult ScanFirstMatch(std::span<const uint8_t> data) const;

  // ScanFirstMatch walks data of at least lane_walk_min_bytes() bytes in
  // kLanes interleaved lanes (see the host layout below).
  static constexpr size_t kLanes = 4;
  size_t lane_walk_min_bytes() const { return kLanes * (2 * max_len_ + 16); }

  size_t pattern_count() const { return pattern_count_; }
  size_t node_count() const { return nodes_.size() - 1; }

  // GraphBytes and HardwareGraphBytes model the layouts of the paper's
  // matcher, not the host layout below: they depend only on the trie's node
  // and transition counts, and they size the DPI NF's arena allocation
  // (hence every Fig. 5 trace address) and the Table 6/7 rows.

  // Logical size of the matching graph as laid out in NF RAM (the software
  // automaton backing the DPI network function; Table 6's DPI heap).
  uint64_t GraphBytes() const;

  // Size of the hardware-walkable graph format consumed by the DPI
  // accelerator (the "Graph" figure of Table 7's memory profile).
  uint64_t HardwareGraphBytes() const;

 private:
  // Host layout: a flat graph in compressed sparse row form. Nodes are
  // numbered in breadth-first order with each node's children emitted in
  // byte order, so the children of node v are exactly the nodes
  // [nodes_[v].child_begin, nodes_[v + 1].child_begin) and the edge array
  // needs only the byte on each edge: `labels_[c]` is the byte leading into
  // node c. Output is precomputed per node, so a scan reads one record per
  // byte and never walks dictionary links.
  //
  // The first kDenseNodes nodes, the root and the shallowest states, also
  // get a full 256-entry transition row: goto with the fail chase already
  // completed, 0 for a byte that leads nowhere. On CAIDA-like payloads
  // through the paper-sized corpus a scan spends ~99% of its bytes in these
  // states. There it takes one load per byte and does not test the byte
  // first: the used_ test's outcome follows the payload's bytes, and rows
  // placed behind it scanned only ~1.1x faster than no rows, against ~1.9x
  // without it. Every other state keeps the sparse path: the used_ test,
  // then a search of its CSR children, then its fail chase, which ends at
  // the first state that has a row. The rows take a fixed 64 KB; 16 or
  // 4,096 of them scanned no faster than 64.
  //
  // A walk is then bound by the latency of one dependent load per byte, so
  // ScanFirstMatch splits a payload of at least lane_walk_min_bytes() into
  // kLanes walks that run in lockstep, four independent load chains instead
  // of one. Lane k owns bytes [k * seg, (k + 1) * seg) for
  // seg = size / kLanes, the last lane also the remainder, and every lane
  // after the first starts max_len_ bytes early to reach the sequential
  // walk's state by its first owned byte; the threshold keeps that warm-up
  // under half a segment. Shorter payloads and lane tails take the
  // sequential walk, FirstMatchFrom; Scan stays sequential.
  static constexpr uint32_t kDenseNodes = 64;

  struct Node {
    uint32_t child_begin = 0;
    uint32_t fail = 0;
    // The node's own first pattern, else its nearest dictionary suffix's
    // (UINT32_MAX when neither exists).
    uint32_t first_pattern = UINT32_MAX;
    // Patterns ending here plus all along the dictionary-suffix chain.
    uint32_t match_count = 0;
  };

  // Goto with fail-link fallback, down to the first state with a row.
  uint32_t Next(uint32_t state, uint8_t byte) const;
  // One scan transition: the row when `state` has one, else Next.
  uint32_t Step(uint32_t state, uint8_t byte) const;
  // The sequential first-match walk over data[begin, end) from `state`;
  // bytes_scanned counts from data's start, and is `end` without a match.
  MatchResult FirstMatchFrom(uint32_t state, std::span<const uint8_t> data,
                             size_t begin, size_t end) const;

  std::vector<Node> nodes_;      // node_count() records plus an end sentinel
  std::vector<uint8_t> labels_;  // CSR edge bytes, indexed by child node
  // Row of state s at [s * 256, s * 256 + 256), for the first
  // min(kDenseNodes, nodes) states.
  std::vector<uint32_t> rows_;
  // Bytes that occur in any pattern; any other byte returns a sparse state
  // straight to the root without a fail chase.
  std::array<bool, 256> used_{};
  size_t pattern_count_;
  size_t max_len_ = 0;  // longest pattern: the deepest state's depth
};

// Deterministic synthetic ruleset with the cardinality of the paper's DPI
// corpus (33,471 patterns from six open-source rulesets). Patterns are
// ASCII strings of length [min_len, max_len] sharing realistic common
// prefixes ("GET /", "User-Agent:", shell fragments, hex blob prefixes).
std::vector<std::string> GenerateDpiRuleset(size_t count, uint64_t seed,
                                            size_t min_len = 6,
                                            size_t max_len = 24);

}  // namespace snic::accel

#endif  // SNIC_ACCEL_AHO_CORASICK_H_
