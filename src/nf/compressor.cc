#include "src/nf/compressor.h"

#include <cstring>
#include <vector>

#include "src/accel/zip.h"
#include "src/common/units.h"
#include "src/net/parser.h"

namespace snic::nf {
namespace {

// Payloads below this size are never worth the header cost.
constexpr size_t kMinPayloadBytes = 64;
// Modeled instruction cost per payload byte (hash-chain matcher).
constexpr uint32_t kInstructionsPerByte = 12;

void SetTotalLength(std::span<uint8_t> frame, size_t l3_offset,
                    uint16_t total_length) {
  frame[l3_offset + 2] = static_cast<uint8_t>(total_length >> 8);
  frame[l3_offset + 3] = static_cast<uint8_t>(total_length);
}

}  // namespace

Compressor::Compressor() : NetworkFunction("ZIPNF") {
  window_allocation_ = arena().Alloc(accel::kZipWindowBytes, "zip-window");
  // Hash-chain tables of the matcher (head + prev arrays).
  (void)arena().Alloc(KiB(256), "zip-chains");
}

Verdict Compressor::HandlePacket(net::Packet& packet) {
  const auto parsed = net::Parse(packet.bytes());
  if (!parsed.ok()) {
    return Verdict::kDrop;
  }
  const auto& pp = parsed.value();
  bytes_in_ += packet.size();
  if (pp.payload_len < kMinPayloadBytes || !pp.tcp.has_value()) {
    bytes_out_ += packet.size();
    recorder_.Compute(8);
    return Verdict::kForward;
  }

  const auto payload = packet.bytes().subspan(pp.payload_offset);
  // Record the matcher's window/chain traffic: one window touch per byte.
  for (size_t i = 0; i < payload.size(); i += 8) {
    recorder_.Load(window_allocation_.base + (i % accel::kZipWindowBytes));
    recorder_.Compute(kInstructionsPerByte * 8);
  }
  const accel::ZipResult result = accel::ZipCompress(payload);
  if (result.data.size() >= payload.size()) {
    bytes_out_ += packet.size();  // incompressible: pass through
    return Verdict::kForward;
  }

  // Rewrite the frame in place: swap the payload, mark DSCP, fix lengths
  // and the header checksum.
  const size_t new_size = pp.payload_offset + result.data.size();
  auto bytes = packet.mutable_bytes();
  std::memcpy(bytes.data() + pp.payload_offset, result.data.data(),
              result.data.size());
  packet.Resize(new_size);
  auto frame = packet.mutable_bytes();
  frame[pp.l3_offset + 1] = static_cast<uint8_t>(kCompressedDscp << 2);
  SetTotalLength(frame, pp.l3_offset,
                 static_cast<uint16_t>(new_size - pp.l3_offset));
  net::UpdateIpv4Checksum(frame, pp.l3_offset);

  ++compressed_;
  bytes_out_ += packet.size();
  return Verdict::kForward;
}

bool Compressor::Decompress(net::Packet& packet) {
  const auto parsed = net::Parse(packet.bytes());
  if (!parsed.ok()) {
    return false;
  }
  const auto& pp = parsed.value();
  if ((pp.ip.dscp_ecn >> 2) != kCompressedDscp) {
    return false;
  }
  const auto payload = packet.bytes().subspan(pp.payload_offset);
  const std::vector<uint8_t> restored = accel::ZipDecompress(payload);

  std::vector<uint8_t> frame(packet.bytes().begin(),
                             packet.bytes().begin() +
                                 static_cast<ptrdiff_t>(pp.payload_offset));
  frame.insert(frame.end(), restored.begin(), restored.end());
  frame[pp.l3_offset + 1] = 0;  // clear the DSCP marker
  packet = net::Packet(std::move(frame));
  auto bytes = packet.mutable_bytes();
  SetTotalLength(bytes, pp.l3_offset,
                 static_cast<uint16_t>(packet.size() - pp.l3_offset));
  net::UpdateIpv4Checksum(bytes, pp.l3_offset);
  return true;
}

}  // namespace snic::nf
