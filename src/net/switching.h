// Switching rules for the packet input module (§3.1, §4.4).
//
// The packet input module forwards each incoming frame to a network function
// based on management-configured predicates over the frame's 5-tuple, the
// destination MAC (SR-IOV style), and — per S-NIC's VXLAN integration — the
// Virtual Network Identifier of VXLAN-encapsulated traffic.

#ifndef SNIC_NET_SWITCHING_H_
#define SNIC_NET_SWITCHING_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/net/five_tuple.h"
#include "src/net/headers.h"
#include "src/net/parser.h"

namespace snic::net {

// A single match predicate. Unset (nullopt) fields are wildcards. IP fields
// match against a prefix (address + prefix length, CIDR semantics).
struct SwitchRule {
  struct IpPrefix {
    uint32_t addr = 0;
    uint8_t prefix_len = 32;

    bool Matches(uint32_t ip) const {
      if (prefix_len == 0) {
        return true;
      }
      const uint32_t mask = prefix_len >= 32
                                ? 0xffffffffu
                                : ~((1u << (32 - prefix_len)) - 1);
      return (ip & mask) == (addr & mask);
    }
  };

  std::optional<IpPrefix> src_ip;
  std::optional<IpPrefix> dst_ip;
  std::optional<uint16_t> src_port;
  std::optional<uint16_t> dst_port;
  std::optional<uint8_t> protocol;
  std::optional<MacAddress> dst_mac;
  std::optional<uint32_t> vni;  // matches the VXLAN VNI when present

  // True when every set field matches the parsed frame.
  bool Matches(const ParsedPacket& pkt) const;

  std::string ToString() const;
};

}  // namespace snic::net

#endif  // SNIC_NET_SWITCHING_H_
