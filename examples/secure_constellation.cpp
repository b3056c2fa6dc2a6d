// Secure constellation (Fig. 4): a tenant stitches together an S-NIC
// intrusion-detection function and two host-level enclaves ("gateways")
// inside an untrusted cloud. All parties attest pairwise, derive channel
// keys, and ship sealed traffic through the datacenter — the operator can
// snoop every bus and switch yet sees only ciphertext.
//
// Build & run:  ./build/examples/secure_constellation

#include <cstdio>
#include <string>

#include "src/snic.h"

using namespace snic;

int main() {
  std::printf("== Secure constellation: NIC function + host enclaves ==\n\n");

  // The NIC vendor's PKI and the enclave platform vendor's PKI (e.g. the
  // SGX quoting infrastructure) are independent roots of trust.
  Rng boot_rng(77);
  crypto::VendorAuthority nic_vendor(768, boot_rng);
  crypto::VendorAuthority enclave_vendor(768, boot_rng);

  core::SnicConfig config;
  config.num_cores = 8;
  config.dram_bytes = 64ull << 20;
  config.rsa_modulus_bits = 768;
  core::SnicDevice device(config, nic_vendor);
  mgmt::NicOs nic_os(&device);

  // Launch the IDS function that will sit on the cross-enterprise detour
  // path (Fig. 4a).
  mgmt::FunctionImage image;
  image.name = "detour-ids";
  image.code_and_data.assign(32 * 1024, 0x1d);
  image.memory_bytes = 8ull << 20;
  net::SwitchRule rule;
  rule.vni = 1337;  // the tenant's VXLAN segment
  image.switch_rules.push_back(rule);
  const auto nf_id = nic_os.NfCreate(image);
  SNIC_CHECK(nf_id.ok());
  std::printf("IDS function launched (NF %llu), steering VNI 1337\n",
              static_cast<unsigned long long>(nf_id.value()));

  // Constellation parties.
  mgmt::SnicFunctionParty ids(
      "detour-ids", &device, nf_id.value(), nic_vendor.public_key(),
      mgmt::ExpectedMeasurement(image, device.config().page_bytes));
  Rng enclave_rng(78);
  mgmt::EnclaveParty client_gw("client-gateway", {0x01, 0x02}, enclave_vendor,
                               768, enclave_rng);
  mgmt::EnclaveParty dest_gw("dest-gateway", {0x03, 0x04}, enclave_vendor,
                             768, enclave_rng);

  // Pairwise attestation: client->IDS and IDS->dest.
  Rng session_rng(79);
  const crypto::DhGroup group = crypto::Modp1536Group();
  std::printf("Attesting client-gateway <-> IDS ... ");
  const mgmt::PairwiseResult leg1 =
      mgmt::EstablishChannel(client_gw, ids, group, session_rng);
  std::printf("%s\n", leg1.Ok() ? "mutual trust established" : "FAILED");
  std::printf("Attesting IDS <-> dest-gateway ... ");
  const mgmt::PairwiseResult leg2 =
      mgmt::EstablishChannel(ids, dest_gw, group, session_rng);
  std::printf("%s\n", leg2.Ok() ? "mutual trust established" : "FAILED");
  SNIC_CHECK(leg1.Ok() && leg2.Ok());

  // The client gateway seals a flow segment toward the IDS inside the
  // tenant's VXLAN overlay; the cloud operator forwards (and can observe)
  // the encapsulated frame.
  const std::string flow_data = "GET /payroll HTTP/1.1\r\nHost: internal\r\n";
  const auto sealed = leg1.channel_a->Seal(
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(flow_data.data()),
          flow_data.size()),
      /*seq=*/1);

  net::FiveTuple inner;
  inner.src_ip = net::Ipv4FromString("10.8.0.1");
  inner.dst_ip = net::Ipv4FromString("10.8.0.2");
  inner.src_port = 50123;
  inner.dst_port = 443;
  inner.protocol = 6;
  net::FiveTuple outer;
  outer.src_ip = net::Ipv4FromString("198.18.0.1");
  outer.dst_ip = net::Ipv4FromString("198.18.0.2");
  outer.src_port = 48000;
  outer.dst_port = net::kVxlanUdpPort;
  outer.protocol = static_cast<uint8_t>(net::IpProto::kUdp);
  net::PacketBuilder builder;
  builder.SetTuple(inner).SetPayload(
      std::span<const uint8_t>(sealed.data(), sealed.size()));
  SNIC_CHECK_OK(device.DeliverFromWire(builder.BuildVxlan(1337, outer)));
  std::printf("VXLAN frame (VNI 1337) delivered through the switch fabric\n");

  // The IDS function receives the frame inside its private VPP, opens the
  // sealed payload with the attested key, inspects it, re-seals toward the
  // destination gateway.
  auto received = device.NfReceive(nf_id.value());
  SNIC_CHECK(received.ok());
  const auto parsed = net::Parse(received.value().bytes());
  SNIC_CHECK(parsed.ok() && parsed.value().vxlan.has_value());
  // Inner frame begins after the VXLAN header; parse it to find the sealed
  // application payload.
  const auto inner_frame = received.value().bytes().subspan(
      parsed.value().payload_offset + net::kVxlanHeaderLen);
  const auto inner_parsed = net::Parse(inner_frame);
  SNIC_CHECK(inner_parsed.ok());
  const auto sealed_payload =
      inner_frame.subspan(inner_parsed.value().payload_offset);
  const auto opened = leg1.channel_b->Open(sealed_payload, 1);
  SNIC_CHECK(opened.ok());
  const std::string inspected(opened.value().begin(), opened.value().end());
  std::printf("IDS opened the sealed segment (%zu bytes) and inspected it\n",
              inspected.size());

  // Toy inspection: block if a signature appears.
  const bool malicious = inspected.find("cmd.exe") != std::string::npos;
  std::printf("Inspection verdict: %s\n", malicious ? "BLOCK" : "ALLOW");
  if (!malicious) {
    const auto resealed = leg2.channel_a->Seal(
        std::span<const uint8_t>(opened.value().data(),
                                 opened.value().size()),
        /*seq=*/1);
    const auto at_dest = leg2.channel_b->Open(
        std::span<const uint8_t>(resealed.data(), resealed.size()), 1);
    SNIC_CHECK(at_dest.ok());
    std::printf("Destination gateway received %zu bytes intact: \"%.20s...\"\n",
                at_dest.value().size(),
                reinterpret_cast<const char*>(at_dest.value().data()));
  }

  std::printf("\nThe cloud operator saw only: VXLAN headers, ciphertext, and\n"
              "two attestation transcripts it cannot forge — hardware keys\n"
              "never leave the NIC or the enclaves.\n");
  return 0;
}
