#include "src/net/switching.h"

namespace snic::net {

bool SwitchRule::Matches(const ParsedPacket& pkt) const {
  const FiveTuple tuple = pkt.Tuple();
  if (src_ip.has_value() && !src_ip->Matches(tuple.src_ip)) {
    return false;
  }
  if (dst_ip.has_value() && !dst_ip->Matches(tuple.dst_ip)) {
    return false;
  }
  if (src_port.has_value() && *src_port != tuple.src_port) {
    return false;
  }
  if (dst_port.has_value() && *dst_port != tuple.dst_port) {
    return false;
  }
  if (protocol.has_value() && *protocol != tuple.protocol) {
    return false;
  }
  if (dst_mac.has_value() && *dst_mac != pkt.eth.dst) {
    return false;
  }
  if (vni.has_value()) {
    if (!pkt.vxlan.has_value() || !pkt.vxlan->VniValid() ||
        pkt.vxlan->vni != *vni) {
      return false;
    }
  }
  return true;
}

std::string SwitchRule::ToString() const {
  std::string out;
  auto field = [&out](const std::string& name, const std::string& value) {
    if (!out.empty()) {
      out += " ";
    }
    out += name + "=" + value;
  };
  if (src_ip.has_value()) {
    field("src", Ipv4ToString(src_ip->addr) + "/" +
                     std::to_string(src_ip->prefix_len));
  }
  if (dst_ip.has_value()) {
    field("dst", Ipv4ToString(dst_ip->addr) + "/" +
                     std::to_string(dst_ip->prefix_len));
  }
  if (src_port.has_value()) {
    field("sport", std::to_string(*src_port));
  }
  if (dst_port.has_value()) {
    field("dport", std::to_string(*dst_port));
  }
  if (protocol.has_value()) {
    field("proto", std::to_string(*protocol));
  }
  if (dst_mac.has_value()) {
    field("dmac", MacToString(*dst_mac));
  }
  if (vni.has_value()) {
    field("vni", std::to_string(*vni));
  }
  if (out.empty()) {
    out = "<any>";
  }
  return out;
}

}  // namespace snic::net
