// The connection 5-tuple: the unit of flow identity throughout the system.
// Switching rules (§3.1), NAT translations, firewall caches, and the Monitor
// NF all key on this structure.

#ifndef SNIC_NET_FIVE_TUPLE_H_
#define SNIC_NET_FIVE_TUPLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace snic::net {

struct FiveTuple {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 0;

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;

  // Direction-reversed tuple (for return traffic through a NAT).
  FiveTuple Reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, protocol};
  }
};

// 64-bit mix of the tuple fields (splittable into bucket indices). Stable
// across runs — the trace generator and NF caches both rely on determinism.
struct FiveTupleHash {
  size_t operator()(const FiveTuple& t) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
    };
    mix((static_cast<uint64_t>(t.src_ip) << 32) | t.dst_ip);
    mix((static_cast<uint64_t>(t.src_port) << 32) |
        (static_cast<uint64_t>(t.dst_port) << 8) | t.protocol);
    return static_cast<size_t>(h);
  }
};

}  // namespace snic::net

#endif  // SNIC_NET_FIVE_TUPLE_H_
