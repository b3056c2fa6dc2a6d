// DPI network function (§5.1): Aho-Corasick pattern matching over packet
// payloads, with 33,471 patterns matching the cardinality of the six
// open-source rulesets the paper extracts from. Packets whose payload hits
// any pattern are dropped (IDS-style inline blocking).

#ifndef SNIC_NF_DPI_NF_H_
#define SNIC_NF_DPI_NF_H_

#include <memory>

#include "src/accel/aho_corasick.h"
#include "src/nf/network_function.h"

namespace snic::nf {

struct DpiConfig {
  size_t num_patterns = 33'471;
  uint64_t seed = 11;
};

class DpiNf : public NetworkFunction {
 public:
  explicit DpiNf(const DpiConfig& config = {});

  // Shares a prebuilt automaton (the bench builds the 33K-pattern graph once
  // and reuses it across co-tenancy mixes). `config` is not read: the
  // automaton already embodies the ruleset it describes.
  DpiNf(std::shared_ptr<const accel::AhoCorasick> automaton,
        const DpiConfig& config);

  uint64_t matches() const { return matches_; }
  const accel::AhoCorasick& automaton() const { return *automaton_; }

 protected:
  Verdict HandlePacket(net::Packet& packet) override;
  ImageSections Image() const override { return {1.34, 0.56, 2.59}; }

 private:
  void RegisterGraph();

  std::shared_ptr<const accel::AhoCorasick> automaton_;
  ArenaAllocation graph_allocation_;
  uint64_t matches_ = 0;
};

}  // namespace snic::nf

#endif  // SNIC_NF_DPI_NF_H_
