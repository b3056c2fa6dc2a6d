// Function chaining (§4.8 extension): a three-stage service chain —
// compressor -> IDS (virtual DPI accelerator) -> monitor — where every stage
// is a separately launched, mutually isolated S-NIC function and frames hop
// between stages over rate-clocked cross-VPP links (no shared memory).
//
// Build & run:  ./build/examples/function_chain

#include <cstdio>
#include <string>

#include "src/nf/compressor.h"
#include "src/snic.h"

using namespace snic;

namespace {

uint64_t Launch(mgmt::NicOs& nic_os, const char* name, uint16_t port,
                uint32_t dpi_clusters = 0) {
  mgmt::FunctionImage image;
  image.name = name;
  image.code_and_data.assign(2048, 0x77);
  image.memory_bytes = 6ull << 20;
  image.accel_clusters[0] = dpi_clusters;
  net::SwitchRule rule;
  rule.dst_port = port;
  image.switch_rules.push_back(rule);
  const auto id = nic_os.NfCreate(image);
  SNIC_CHECK(id.ok());
  return id.value();
}

}  // namespace

int main() {
  std::printf("== S-NIC function chain: compressor -> IDS -> monitor ==\n\n");

  Rng rng(501);
  crypto::VendorAuthority vendor(512, rng);
  core::SnicConfig config;
  config.num_cores = 16;
  config.dram_bytes = 128ull << 20;
  config.rsa_modulus_bits = 512;
  core::SnicDevice device(config, vendor);
  mgmt::NicOs nic_os(&device);

  // Stage 1 captures wire traffic on TCP/80; stages 2-3 receive only via
  // chain links (their switch ports are never used by the wire).
  const uint64_t zip_nf = Launch(nic_os, "compressor", 80);
  const uint64_t ids_nf = Launch(nic_os, "ids", 10'001, /*dpi_clusters=*/2);
  const uint64_t mon_nf = Launch(nic_os, "monitor", 10'002);
  std::printf("Launched 3 isolated functions (NFs %llu, %llu, %llu)\n",
              static_cast<unsigned long long>(zip_nf),
              static_cast<unsigned long long>(ids_nf),
              static_cast<unsigned long long>(mon_nf));

  core::ChainManager chains(&device);
  SNIC_CHECK(chains.CreateLink({zip_nf, ids_nf, 8}).ok());
  SNIC_CHECK(chains.CreateLink({ids_nf, mon_nf, 8}).ok());
  std::printf("Created 2 rate-clocked cross-VPP links (8 frames/tick)\n\n");

  // NF logic for each stage.
  nf::Compressor compressor;
  auto graph = std::make_shared<const accel::AhoCorasick>(
      accel::GenerateDpiRuleset(2'000, 11));
  nf::DpiNf ids(graph, nf::DpiConfig{.num_patterns = 2'000});
  nf::Monitor monitor;

  // Traffic: compressible HTTP-ish payloads toward port 80.
  int wire_in = 0, compressed = 0, inspected = 0, monitored = 0, out = 0;
  int shed = 0;  // frames refused by a full TX reservation along the chain
  trace::TraceConfig tc = trace::TraceConfig::IctfLike(7);
  tc.payload_entropy = 0.1;  // mostly text: compressible
  trace::PacketStream stream(tc);
  for (int i = 0; i < 3000; ++i) {
    net::Packet packet = stream.Next();
    auto parsed = net::Parse(packet.bytes());
    if (!parsed.ok()) {
      continue;
    }
    net::FiveTuple t = parsed.value().Tuple();
    t.dst_port = 80;
    t.protocol = 6;
    net::PacketBuilder builder;
    builder.SetTuple(t);
    const auto payload = packet.bytes().subspan(parsed.value().payload_offset);
    builder.SetPayload(payload);
    if (!device.DeliverFromWire(builder.Build()).ok()) {
      continue;
    }
    ++wire_in;

    // Stage 1: compress, forward into the chain.
    while (true) {
      auto received = device.NfReceive(zip_nf);
      if (!received.ok()) {
        break;
      }
      net::Packet frame = std::move(received).value();
      if (compressor.Process(frame) == nf::Verdict::kForward) {
        compressed += frame.size() < 500 ? 1 : 0;
        if (!device.NfSend(zip_nf, std::move(frame)).ok()) {
          ++shed;
        }
      }
    }
    chains.TickAll();  // stage1 -> stage2

    // Stage 2: decompress and inspect; drop on a signature hit.
    while (true) {
      auto received = device.NfReceive(ids_nf);
      if (!received.ok()) {
        break;
      }
      net::Packet frame = std::move(received).value();
      nf::Compressor::Decompress(frame);
      ++inspected;
      if (ids.Process(frame) == nf::Verdict::kForward) {
        if (!device.NfSend(ids_nf, std::move(frame)).ok()) {
          ++shed;
        }
      }
    }
    chains.TickAll();  // stage2 -> stage3

    // Stage 3: count flows, transmit.
    while (true) {
      auto received = device.NfReceive(mon_nf);
      if (!received.ok()) {
        break;
      }
      net::Packet frame = std::move(received).value();
      monitor.Process(frame);
      ++monitored;
      if (!device.NfSend(mon_nf, std::move(frame)).ok()) {
        ++shed;
        continue;
      }
      if (device.TransmitToWire().ok()) {
        ++out;
      }
    }
  }

  std::printf("Wire in:            %d frames\n", wire_in);
  std::printf("Stage 1 compressor: %llu compressed (ratio %.2fx)\n",
              static_cast<unsigned long long>(compressor.packets_compressed()),
              compressor.CompressionRatio());
  std::printf("Stage 2 IDS:        %d inspected, %llu dropped on signature\n",
              inspected, static_cast<unsigned long long>(ids.matches()));
  std::printf("Stage 3 monitor:    %d counted across %zu flows\n", monitored,
              monitor.distinct_flows());
  std::printf("Wire out:           %d frames (%d shed at full TX)\n\n", out,
              shed);

  std::printf("Isolation held throughout: stages share no memory; the only\n"
              "inter-stage channel is the rate-clocked link (overt frames\n"
              "and their timing — exactly the §4.8 leakage bound).\n");
  (void)compressed;
  return 0;
}
