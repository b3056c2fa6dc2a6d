// NAT network function, derived from MazuNAT (§5.1, §3.3).
//
// Source NAT: outbound flows get their source address rewritten to the NAT's
// external IP and a distinct external port; a reverse mapping restores
// return traffic. Per the paper, "the cache only records the translation
// results of the first 65,535 flows that can be successfully assigned a
// distinct port number" — later flows pass through untranslated.

#ifndef SNIC_NF_NAT_H_
#define SNIC_NF_NAT_H_

#include <cstdint>
#include <memory>

#include "src/nf/flow_hash_map.h"
#include "src/nf/network_function.h"

namespace snic::nf {

// The address outbound flows are rewritten to: 198.51.100.1 (TEST-NET-2).
inline constexpr uint32_t kNatExternalIp = 0xc6336401;

struct NatConfig {
  uint16_t first_port = 1;
  uint16_t last_port = 65'535;
};

class Nat : public NetworkFunction {
 public:
  explicit Nat(const NatConfig& config = {});

  uint64_t translations_installed() const { return installed_; }
  uint64_t port_pool_exhausted() const { return exhausted_; }

 protected:
  Verdict HandlePacket(net::Packet& packet) override;
  ImageSections Image() const override { return {0.86, 0.05, 2.49}; }
  uint64_t FlowTableEntries() const override {
    return outbound_ == nullptr ? 0 : outbound_->size();
  }

 private:
  // Per-mapping state mirrors MazuNAT/Click: the rewrite target plus the
  // liveness bookkeeping its garbage collector consults.
  struct Translation {
    uint32_t external_ip = 0;
    uint16_t external_port = 0;
    uint16_t tcp_flags_seen = 0;
    uint64_t last_used_ns = 0;
    uint64_t packets = 0;
    uint64_t bytes = 0;
  };
  struct ReverseEntry {
    uint32_t internal_ip = 0;
    uint16_t internal_port = 0;
    uint16_t tcp_flags_seen = 0;
    uint64_t last_used_ns = 0;
    uint64_t packets = 0;
    uint64_t bytes = 0;
  };

  void RewriteOutbound(net::Packet& packet, size_t l3_offset, size_t l4_offset,
                       const Translation& translation);
  void RewriteInbound(net::Packet& packet, size_t l3_offset, size_t l4_offset,
                      const ReverseEntry& entry);

  NatConfig config_;
  std::unique_ptr<FlowHashMap<Translation>> outbound_;
  std::unique_ptr<FlowHashMap<ReverseEntry>> inbound_;
  uint32_t next_port_;
  uint64_t installed_ = 0;
  uint64_t exhausted_ = 0;
};

}  // namespace snic::nf

#endif  // SNIC_NF_NAT_H_
