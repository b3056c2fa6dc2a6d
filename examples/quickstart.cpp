// Quickstart: the complete lifecycle of one tenant function on an S-NIC.
//
//   1. Boot an S-NIC with a vendor-certified root of trust.
//   2. The NIC OS stages and launches a firewall function (NF_create).
//   3. Traffic arrives from the wire, is steered by the function's switch
//      rules into its virtual packet pipeline, processed, and transmitted.
//   4. A remote verifier attests the function before trusting it.
//   5. The function is destroyed; its resources are scrubbed and returned.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "src/snic.h"

using namespace snic;

int main() {
  std::printf("== S-NIC quickstart ==\n\n");

  // 1. Boot. The vendor authority models the NIC manufacturer's PKI; the
  //    device generates its endorsement/attestation keys at "power-on".
  Rng boot_rng(2024);
  crypto::VendorAuthority vendor(/*modulus_bits=*/768, boot_rng);
  core::SnicConfig config;
  config.num_cores = 16;          // core 0 runs the NIC OS
  config.dram_bytes = 256ull << 20;
  config.rsa_modulus_bits = 768;
  core::SnicDevice device(config, vendor);
  mgmt::NicOs nic_os(&device);
  std::printf("Booted S-NIC: %u cores, %llu MB DRAM, EK certified by vendor\n",
              config.num_cores,
              static_cast<unsigned long long>(config.dram_bytes >> 20));

  // 2. The tenant uploads a firewall image; the NIC OS launches it.
  mgmt::FunctionImage image;
  image.name = "tenant-firewall";
  image.code_and_data.assign(64 * 1024, 0xf1);  // the function binary
  image.cores = 2;
  image.memory_bytes = 20ull << 20;
  net::SwitchRule rule;                         // steer TCP/80 to this NF
  rule.dst_port = 80;
  rule.protocol = static_cast<uint8_t>(net::IpProto::kTcp);
  image.switch_rules.push_back(rule);
  const auto nf_id = nic_os.NfCreate(image);
  if (!nf_id.ok()) {
    std::printf("launch failed: %s\n", nf_id.status().ToString().c_str());
    return 1;
  }
  std::printf("Launched '%s' as NF %llu on cores 0x%llx (%zu pages bound)\n",
              image.name.c_str(),
              static_cast<unsigned long long>(nf_id.value()),
              static_cast<unsigned long long>(
                  device.CoresOf(nf_id.value()).value()),
              device.memory().PagesOwnedBy(nf_id.value()).size());

  // Hardware isolation is already in force: the NIC OS that just created
  // the function can no longer read its memory.
  const auto pages = device.memory().PagesOwnedBy(nf_id.value());
  const auto denied = nic_os.PeekPhys(pages[0] * config.page_bytes);
  std::printf("NIC OS peek into NF memory -> %s\n",
              denied.status().ToString().c_str());

  // 3. Traffic. The firewall NF logic runs against packets polled from the
  //    function's virtual packet pipeline.
  nf::Firewall firewall(nf::FirewallConfig{.num_rules = 128});
  trace::TraceConfig tc = trace::TraceConfig::CaidaLike(7);
  trace::PacketStream stream(tc);
  int delivered = 0, forwarded = 0, dropped = 0;
  for (int i = 0; i < 5000; ++i) {
    net::Packet packet = stream.Next();
    // Rewrite the stream toward our captured port so the switch matches.
    auto parsed = net::Parse(packet.bytes());
    if (!parsed.ok()) {
      continue;
    }
    net::FiveTuple t = parsed.value().Tuple();
    t.dst_port = 80;
    packet = net::PacketBuilder().SetTuple(t).SetFrameLen(packet.size()).Build();
    if (!device.DeliverFromWire(std::move(packet)).ok()) {
      continue;  // RX reservation full
    }
    ++delivered;
    auto received = device.NfReceive(nf_id.value());
    if (!received.ok()) {
      continue;
    }
    net::Packet work = std::move(received).value();
    if (firewall.Process(work) == nf::Verdict::kForward) {
      if (!device.NfSend(nf_id.value(), std::move(work)).ok()) {
        ++dropped;  // TX reservation full: the frame is shed, not forwarded
        continue;
      }
      ++forwarded;
      (void)device.TransmitToWire();
    } else {
      ++dropped;
    }
  }
  std::printf("Processed %d packets through the VPP: %d forwarded, %d dropped"
              " (cache hit rate %.1f%%)\n",
              delivered, forwarded, dropped,
              100.0 * static_cast<double>(firewall.cache_hits()) /
                  static_cast<double>(firewall.cache_hits() +
                                      firewall.cache_misses()));

  // 4. Remote attestation: a verifier checks the function is genuine before
  //    keying a channel to it. The quote crosses the network as bytes; the
  //    verifier decodes it and checks the chain, signature, nonce, the
  //    measurement of the image it uploaded and the DH group in one call.
  Rng session_rng(99);
  const crypto::DhGroup group = crypto::SmallTestGroup();
  crypto::DhParticipant function_dh(group, session_rng);
  core::AttestationRequest request;
  request.group = group;
  request.nonce = {0xa, 0xb, 0xc, 0xd};
  request.g_x = function_dh.public_value();
  const auto quote = device.NfAttest(nf_id.value(), request);
  const auto checked = mgmt::ChallengeQuote(
      core::SerializeQuote(quote.value()), vendor.public_key(), group,
      request.nonce, mgmt::ExpectedMeasurement(image, config.page_bytes),
      image.name);
  if (checked.ok()) {
    std::printf("Attestation: chain=ok signature=ok nonce=ok -> TRUSTED\n");
  } else {
    std::printf("Attestation: %s -> REJECTED\n",
                checked.status().ToString().c_str());
  }
  std::printf("Function measurement: %s\n",
              crypto::DigestToHex(quote.value().measurement).c_str());

  // 5. Teardown: pages scrubbed, cores and clusters freed.
  SNIC_CHECK_OK(device.NfTeardown(nf_id.value()));
  std::printf("Teardown complete: scrub took %.2f ms (modeled), %u cores free\n",
              device.last_teardown_latency().scrub_ms, device.FreeCores());
  return 0;
}
