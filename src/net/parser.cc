#include "src/net/parser.h"

#include <cstdio>
#include <cstring>

namespace snic::net {
namespace {

uint16_t ReadU16(std::span<const uint8_t> b, size_t off) {
  return static_cast<uint16_t>((b[off] << 8) | b[off + 1]);
}

uint32_t ReadU32(std::span<const uint8_t> b, size_t off) {
  return (static_cast<uint32_t>(b[off]) << 24) |
         (static_cast<uint32_t>(b[off + 1]) << 16) |
         (static_cast<uint32_t>(b[off + 2]) << 8) |
         static_cast<uint32_t>(b[off + 3]);
}

void WriteU16(std::vector<uint8_t>& b, size_t off, uint16_t v) {
  b[off] = static_cast<uint8_t>(v >> 8);
  b[off + 1] = static_cast<uint8_t>(v);
}

void WriteU32(std::vector<uint8_t>& b, size_t off, uint32_t v) {
  b[off] = static_cast<uint8_t>(v >> 24);
  b[off + 1] = static_cast<uint8_t>(v >> 16);
  b[off + 2] = static_cast<uint8_t>(v >> 8);
  b[off + 3] = static_cast<uint8_t>(v);
}

}  // namespace

std::string MacToString(const MacAddress& mac) {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", mac[0],
                mac[1], mac[2], mac[3], mac[4], mac[5]);
  return buf;
}

std::string Ipv4ToString(uint32_t addr) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr >> 24) & 0xff,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff);
  return buf;
}

uint32_t Ipv4FromString(const char* dotted) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  const int n = std::sscanf(dotted, "%u.%u.%u.%u", &a, &b, &c, &d);
  SNIC_CHECK(n == 4 && a < 256 && b < 256 && c < 256 && d < 256);
  return (a << 24) | (b << 16) | (c << 8) | d;
}

FiveTuple ParsedPacket::Tuple() const {
  FiveTuple t;
  t.src_ip = ip.src_addr;
  t.dst_ip = ip.dst_addr;
  t.protocol = ip.protocol;
  if (tcp.has_value()) {
    t.src_port = tcp->src_port;
    t.dst_port = tcp->dst_port;
  } else if (udp.has_value()) {
    t.src_port = udp->src_port;
    t.dst_port = udp->dst_port;
  }
  return t;
}

Result<ParsedPacket> Parse(std::span<const uint8_t> frame) {
  if (frame.size() < kEthernetHeaderLen + kIpv4MinHeaderLen) {
    return InvalidArgument("frame truncated before IPv4 header");
  }
  ParsedPacket out;
  std::memcpy(out.eth.dst.data(), frame.data(), 6);
  std::memcpy(out.eth.src.data(), frame.data() + 6, 6);
  out.eth.ether_type = ReadU16(frame, 12);
  if (out.eth.ether_type != static_cast<uint16_t>(EtherType::kIpv4)) {
    return InvalidArgument("unsupported ethertype");
  }

  const size_t l3 = kEthernetHeaderLen;
  out.l3_offset = l3;
  out.ip.version_ihl = frame[l3];
  if ((out.ip.version_ihl >> 4) != 4) {
    return InvalidArgument("not IPv4");
  }
  const size_t ihl = out.ip.HeaderLen();
  if (ihl < kIpv4MinHeaderLen || frame.size() < l3 + ihl) {
    return InvalidArgument("bad IHL");
  }
  out.ip.dscp_ecn = frame[l3 + 1];
  out.ip.total_length = ReadU16(frame, l3 + 2);
  out.ip.identification = ReadU16(frame, l3 + 4);
  out.ip.flags_fragment = ReadU16(frame, l3 + 6);
  out.ip.ttl = frame[l3 + 8];
  out.ip.protocol = frame[l3 + 9];
  out.ip.checksum = ReadU16(frame, l3 + 10);
  out.ip.src_addr = ReadU32(frame, l3 + 12);
  out.ip.dst_addr = ReadU32(frame, l3 + 16);

  const size_t l4 = l3 + ihl;
  out.l4_offset = l4;
  if (out.ip.protocol == static_cast<uint8_t>(IpProto::kTcp)) {
    if (frame.size() < l4 + kTcpMinHeaderLen) {
      return InvalidArgument("frame truncated before TCP header");
    }
    TcpHeader tcp;
    tcp.src_port = ReadU16(frame, l4);
    tcp.dst_port = ReadU16(frame, l4 + 2);
    tcp.seq = ReadU32(frame, l4 + 4);
    tcp.ack = ReadU32(frame, l4 + 8);
    tcp.data_offset_reserved = frame[l4 + 12];
    tcp.flags = frame[l4 + 13];
    tcp.window = ReadU16(frame, l4 + 14);
    tcp.checksum = ReadU16(frame, l4 + 16);
    tcp.urgent = ReadU16(frame, l4 + 18);
    const size_t tcp_len = tcp.HeaderLen();
    if (tcp_len < kTcpMinHeaderLen || frame.size() < l4 + tcp_len) {
      return InvalidArgument("bad TCP data offset");
    }
    out.payload_offset = l4 + tcp_len;
    out.tcp = tcp;
  } else if (out.ip.protocol == static_cast<uint8_t>(IpProto::kUdp)) {
    if (frame.size() < l4 + kUdpHeaderLen) {
      return InvalidArgument("frame truncated before UDP header");
    }
    UdpHeader udp;
    udp.src_port = ReadU16(frame, l4);
    udp.dst_port = ReadU16(frame, l4 + 2);
    udp.length = ReadU16(frame, l4 + 4);
    udp.checksum = ReadU16(frame, l4 + 6);
    out.payload_offset = l4 + kUdpHeaderLen;
    out.udp = udp;
    if (udp.dst_port == kVxlanUdpPort &&
        frame.size() >= out.payload_offset + kVxlanHeaderLen) {
      VxlanHeader vx;
      vx.flags = frame[out.payload_offset];
      // VNI occupies bytes 4-6 of the VXLAN header.
      vx.vni = ReadU32(frame, out.payload_offset + 4) >> 8;
      out.vxlan = vx;
    }
  } else {
    out.payload_offset = l4;
  }
  out.payload_len = frame.size() - out.payload_offset;
  return out;
}

Result<ParsedPacket> ParseStrict(std::span<const uint8_t> frame) {
  Result<ParsedPacket> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed;
  }
  // Summing the whole header including the stored checksum field must give
  // the ones-complement zero (0x0000 after the final inversion).
  const size_t ihl = parsed.value().ip.HeaderLen();
  const uint16_t sum =
      InternetChecksum(frame.subspan(parsed.value().l3_offset, ihl));
  if (sum != 0) {
    return InvalidArgument("bad IPv4 header checksum");
  }
  return parsed;
}

uint16_t InternetChecksum(std::span<const uint8_t> data, uint32_t initial) {
  uint32_t sum = initial;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i] << 8);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

void UpdateIpv4Checksum(std::span<uint8_t> frame, size_t l3_offset) {
  SNIC_CHECK(frame.size() >= l3_offset + kIpv4MinHeaderLen);
  const size_t ihl = static_cast<size_t>(frame[l3_offset] & 0xf) * 4;
  frame[l3_offset + 10] = 0;
  frame[l3_offset + 11] = 0;
  const uint16_t sum = InternetChecksum(frame.subspan(l3_offset, ihl));
  frame[l3_offset + 10] = static_cast<uint8_t>(sum >> 8);
  frame[l3_offset + 11] = static_cast<uint8_t>(sum);
}

PacketBuilder::PacketBuilder() {
  src_mac_ = {0x02, 0, 0, 0, 0, 0x01};
  dst_mac_ = {0x02, 0, 0, 0, 0, 0x02};
  tuple_.src_ip = Ipv4FromString("10.0.0.1");
  tuple_.dst_ip = Ipv4FromString("10.0.0.2");
  tuple_.src_port = 10000;
  tuple_.dst_port = 80;
  tuple_.protocol = static_cast<uint8_t>(IpProto::kTcp);
}

PacketBuilder& PacketBuilder::SetMacs(const MacAddress& src,
                                      const MacAddress& dst) {
  src_mac_ = src;
  dst_mac_ = dst;
  return *this;
}

PacketBuilder& PacketBuilder::SetTuple(const FiveTuple& tuple) {
  tuple_ = tuple;
  return *this;
}

PacketBuilder& PacketBuilder::SetTcpFlags(uint8_t flags) {
  tcp_flags_ = flags;
  return *this;
}

PacketBuilder& PacketBuilder::SetTtl(uint8_t ttl) {
  ttl_ = ttl;
  return *this;
}

PacketBuilder& PacketBuilder::SetPayload(std::span<const uint8_t> payload) {
  payload_.assign(payload.begin(), payload.end());
  return *this;
}

PacketBuilder& PacketBuilder::SetFrameLen(size_t frame_len) {
  frame_len_ = frame_len;
  return *this;
}

std::vector<uint8_t> PacketBuilder::BuildBytes() const {
  const bool is_tcp = tuple_.protocol == static_cast<uint8_t>(IpProto::kTcp);
  const size_t l4_len = is_tcp ? kTcpMinHeaderLen : kUdpHeaderLen;
  const size_t header_len = kEthernetHeaderLen + kIpv4MinHeaderLen + l4_len;

  std::vector<uint8_t> payload = payload_;
  if (frame_len_ != 0) {
    SNIC_CHECK(frame_len_ >= header_len);
    payload.resize(frame_len_ - header_len, 0);
  }

  std::vector<uint8_t> b(header_len + payload.size(), 0);
  std::memcpy(b.data(), dst_mac_.data(), 6);
  std::memcpy(b.data() + 6, src_mac_.data(), 6);
  WriteU16(b, 12, static_cast<uint16_t>(EtherType::kIpv4));

  const size_t l3 = kEthernetHeaderLen;
  b[l3] = 0x45;  // version 4, IHL 5
  WriteU16(b, l3 + 2, static_cast<uint16_t>(b.size() - l3));
  b[l3 + 8] = ttl_;
  b[l3 + 9] = tuple_.protocol;
  WriteU32(b, l3 + 12, tuple_.src_ip);
  WriteU32(b, l3 + 16, tuple_.dst_ip);

  const size_t l4 = l3 + kIpv4MinHeaderLen;
  WriteU16(b, l4, tuple_.src_port);
  WriteU16(b, l4 + 2, tuple_.dst_port);
  if (is_tcp) {
    b[l4 + 12] = 0x50;  // data offset 5 words
    b[l4 + 13] = tcp_flags_;
    WriteU16(b, l4 + 14, 0xffff);  // window
  } else {
    WriteU16(b, l4 + 4, static_cast<uint16_t>(kUdpHeaderLen + payload.size()));
  }
  if (!payload.empty()) {
    std::memcpy(b.data() + header_len, payload.data(), payload.size());
  }
  UpdateIpv4Checksum(b, l3);
  return b;
}

Packet PacketBuilder::Build() const { return Packet(BuildBytes()); }

Packet PacketBuilder::BuildVxlan(uint32_t vni, const FiveTuple& outer) const {
  const std::vector<uint8_t> inner = BuildBytes();
  const size_t outer_header =
      kEthernetHeaderLen + kIpv4MinHeaderLen + kUdpHeaderLen + kVxlanHeaderLen;
  std::vector<uint8_t> b(outer_header + inner.size(), 0);

  std::memcpy(b.data(), dst_mac_.data(), 6);
  std::memcpy(b.data() + 6, src_mac_.data(), 6);
  WriteU16(b, 12, static_cast<uint16_t>(EtherType::kIpv4));

  const size_t l3 = kEthernetHeaderLen;
  b[l3] = 0x45;
  WriteU16(b, l3 + 2, static_cast<uint16_t>(b.size() - l3));
  b[l3 + 8] = 64;
  b[l3 + 9] = static_cast<uint8_t>(IpProto::kUdp);
  WriteU32(b, l3 + 12, outer.src_ip);
  WriteU32(b, l3 + 16, outer.dst_ip);

  const size_t l4 = l3 + kIpv4MinHeaderLen;
  WriteU16(b, l4, outer.src_port);
  WriteU16(b, l4 + 2, kVxlanUdpPort);
  WriteU16(b, l4 + 4,
           static_cast<uint16_t>(b.size() - l4));

  const size_t vx = l4 + kUdpHeaderLen;
  b[vx] = 0x08;  // VNI valid
  b[vx + 4] = static_cast<uint8_t>(vni >> 16);
  b[vx + 5] = static_cast<uint8_t>(vni >> 8);
  b[vx + 6] = static_cast<uint8_t>(vni);

  std::memcpy(b.data() + outer_header, inner.data(), inner.size());
  UpdateIpv4Checksum(b, l3);
  return Packet(std::move(b));
}

}  // namespace snic::net
