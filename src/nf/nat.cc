#include "src/nf/nat.h"

#include "src/net/parser.h"

namespace snic::nf {
namespace {

// The internal network whose outbound traffic is translated: 10.0.0.0/8.
constexpr uint32_t kInternalPrefix = 0x0a000000;
constexpr uint32_t kInternalMask = 0xff000000;

bool IsInternal(uint32_t ip) {
  return (ip & kInternalMask) == kInternalPrefix;
}

void WriteU16(std::span<uint8_t> b, size_t off, uint16_t v) {
  b[off] = static_cast<uint8_t>(v >> 8);
  b[off + 1] = static_cast<uint8_t>(v);
}

void WriteU32(std::span<uint8_t> b, size_t off, uint32_t v) {
  b[off] = static_cast<uint8_t>(v >> 24);
  b[off + 1] = static_cast<uint8_t>(v >> 16);
  b[off + 2] = static_cast<uint8_t>(v >> 8);
  b[off + 3] = static_cast<uint8_t>(v);
}

}  // namespace

Nat::Nat(const NatConfig& config)
    : NetworkFunction("NAT"), config_(config), next_port_(config.first_port) {
  // MazuNAT keeps forward and reverse maps; both grow from a small initial
  // capacity, producing resize events until they plateau at 64Ki entries.
  outbound_ = std::make_unique<FlowHashMap<Translation>>(
      &arena(), &recorder_, 1024, 0, "nat-out");
  inbound_ = std::make_unique<FlowHashMap<ReverseEntry>>(
      &arena(), &recorder_, 1024, 0, "nat-in");
}

Verdict Nat::HandlePacket(net::Packet& packet) {
  const auto parsed = net::Parse(packet.bytes());
  if (!parsed.ok()) {
    return Verdict::kDrop;
  }
  const auto& pp = parsed.value();
  const net::FiveTuple tuple = pp.Tuple();

  if (IsInternal(tuple.src_ip)) {
    // Outbound: translate, or install a translation if ports remain.
    Translation* translation = outbound_->Find(tuple);
    if (translation == nullptr) {
      if (next_port_ > config_.last_port) {
        ++exhausted_;
        recorder_.Compute(6);
        return Verdict::kForward;  // pass through untranslated
      }
      Translation fresh;
      fresh.external_ip = kNatExternalIp;
      fresh.external_port = static_cast<uint16_t>(next_port_++);
      outbound_->Insert(tuple, fresh);
      net::FiveTuple reverse;
      reverse.src_ip = tuple.dst_ip;
      reverse.dst_ip = fresh.external_ip;
      reverse.src_port = tuple.dst_port;
      reverse.dst_port = fresh.external_port;
      reverse.protocol = tuple.protocol;
      ReverseEntry back;
      back.internal_ip = tuple.src_ip;
      back.internal_port = tuple.src_port;
      inbound_->Insert(reverse, back);
      ++installed_;
      translation = outbound_->Find(tuple);
    }
    translation->last_used_ns = packet.arrival_ns();
    ++translation->packets;
    translation->bytes += packet.size();
    recorder_.Compute(90);  // header rewrite + incremental checksum
    RewriteOutbound(packet, pp.l3_offset, pp.l4_offset, *translation);
    return Verdict::kForward;
  }

  // Inbound: restore the internal endpoint if a mapping exists.
  ReverseEntry* entry = inbound_->Find(tuple);
  if (entry != nullptr) {
    entry->last_used_ns = packet.arrival_ns();
    ++entry->packets;
    entry->bytes += packet.size();
    recorder_.Compute(90);
    RewriteInbound(packet, pp.l3_offset, pp.l4_offset, *entry);
    return Verdict::kForward;
  }
  recorder_.Compute(4);
  return Verdict::kForward;
}

void Nat::RewriteOutbound(net::Packet& packet, size_t l3_offset,
                          size_t l4_offset, const Translation& translation) {
  auto bytes = packet.mutable_bytes();
  WriteU32(bytes, l3_offset + 12, translation.external_ip);  // src IP
  WriteU16(bytes, l4_offset, translation.external_port);     // src port
  net::UpdateIpv4Checksum(bytes, l3_offset);
}

void Nat::RewriteInbound(net::Packet& packet, size_t l3_offset,
                         size_t l4_offset, const ReverseEntry& entry) {
  auto bytes = packet.mutable_bytes();
  WriteU32(bytes, l3_offset + 16, entry.internal_ip);     // dst IP
  WriteU16(bytes, l4_offset + 2, entry.internal_port);    // dst port
  net::UpdateIpv4Checksum(bytes, l3_offset);
}

}  // namespace snic::nf
