#include "src/nf/dpi_nf.h"

#include <algorithm>

#include "src/net/parser.h"

namespace snic::nf {
namespace {

// Matching instructions charged per scanned byte (automaton transition +
// output check).
constexpr uint32_t kInstructionsPerByte = 6;
// Hot top-of-graph region: the middle tier of the walk model below.
constexpr uint64_t kHotGraphBytes = 96 * 1024;

}  // namespace

DpiNf::DpiNf(const DpiConfig& config)
    : DpiNf(std::make_shared<const accel::AhoCorasick>(
                accel::GenerateDpiRuleset(config.num_patterns, config.seed)),
            config) {}

DpiNf::DpiNf(std::shared_ptr<const accel::AhoCorasick> automaton,
             const DpiConfig& /*config*/)
    : NetworkFunction("DPI"), automaton_(std::move(automaton)) {
  RegisterGraph();
}

void DpiNf::RegisterGraph() {
  graph_allocation_ = arena().Alloc(automaton_->GraphBytes(), "dpi-graph");
}

Verdict DpiNf::HandlePacket(net::Packet& packet) {
  const auto parsed = net::Parse(packet.bytes());
  if (!parsed.ok()) {
    return Verdict::kDrop;
  }
  const auto& pp = parsed.value();
  const auto payload = packet.bytes().subspan(pp.payload_offset);

  // Record the automaton walk: one graph access per scanned byte. Real
  // Aho-Corasick walks are heavily root-biased (shallow nodes are hot, deep
  // nodes cold), so most touches land in a hot prefix of the graph with an
  // occasional excursion into the full region — that working-set structure
  // is what makes DPI cache-sensitive in Fig. 5.
  // SIMD-accelerated matchers touch the graph roughly once per 4-byte
  // stride. Node popularity is graded like the trie itself: half the
  // touches stay within the root fan-out (~24 KB), most of the rest within
  // the hot top levels, and 1/32 dive deep into the full graph. The model
  // only feeds the recorder, so it runs only when one is attached.
  if (recorder_.attached()) {
    uint64_t walk = 0x9e3779b97f4a7c15ULL ^ packet.flow_rank();
    for (size_t i = 0; i < payload.size(); i += 4) {
      walk = walk * 6364136223846793005ULL + payload[i] + 1;
      const uint64_t tier = walk & 31;
      uint64_t region;
      if (tier == 0) {
        region = graph_allocation_.bytes;  // deep excursion
      } else if (tier < 16) {
        region = std::min<uint64_t>(kHotGraphBytes, graph_allocation_.bytes);
      } else {
        region = std::min<uint64_t>(24 * 1024, graph_allocation_.bytes);
      }
      recorder_.Load(graph_allocation_.base +
                     ((walk >> 8) % region) / 64 * 64);
      recorder_.Compute(kInstructionsPerByte * 4);
    }
  }

  const accel::MatchResult result = automaton_->ScanFirstMatch(payload);
  if (result.Matched()) {
    ++matches_;
    return Verdict::kDrop;
  }
  return Verdict::kForward;
}

}  // namespace snic::nf
