// End-to-end integration tests: NIC OS launches real NFs onto virtual NICs,
// traffic flows wire -> VPP -> NF -> wire, isolation holds throughout, and
// the full attestation handshake runs over the result.

#include <gtest/gtest.h>

#include "src/mgmt/constellation.h"
#include "src/mgmt/nic_os.h"
#include "src/mgmt/verifier.h"
#include "src/net/parser.h"
#include "src/nf/firewall.h"
#include "src/nf/monitor.h"
#include "src/nf/nat.h"
#include "src/trace/trace_gen.h"

namespace snic {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : rng_(60), vendor_(512, rng_), device_(Config(), vendor_),
        nic_os_(&device_) {}

  static core::SnicConfig Config() {
    core::SnicConfig config;
    config.num_cores = 16;
    config.dram_bytes = 256ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  // Launches a virtual NIC whose VPP captures dst_port == `port`.
  static mgmt::FunctionImage CaptureImage(const std::string& name,
                                          uint16_t port) {
    mgmt::FunctionImage image;
    image.name = name;
    image.code_and_data.assign(1024, 0x11);
    image.memory_bytes = 4ull << 20;
    net::SwitchRule rule;
    rule.dst_port = port;
    image.switch_rules.push_back(rule);
    return image;
  }

  uint64_t LaunchCapture(const std::string& name, uint16_t port) {
    const auto id = nic_os_.NfCreate(CaptureImage(name, port));
    SNIC_CHECK(id.ok());
    return id.value();
  }

  static net::Packet PacketTo(uint16_t port, uint16_t src_port = 777) {
    net::FiveTuple t;
    t.src_ip = net::Ipv4FromString("10.0.0.9");
    t.dst_ip = net::Ipv4FromString("203.0.113.7");
    t.src_port = src_port;
    t.dst_port = port;
    t.protocol = 6;
    return net::PacketBuilder().SetTuple(t).Build();
  }

  Rng rng_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  mgmt::NicOs nic_os_;
};

TEST_F(IntegrationTest, WireToNfToWireThroughFirewall) {
  const uint64_t id = LaunchCapture("fw", 80);
  nf::Firewall firewall(nf::FirewallConfig{.num_rules = 32});

  // Wire -> VPP.
  ASSERT_TRUE(device_.DeliverFromWire(PacketTo(80)).ok());
  // NF polls, processes, transmits.
  auto received = device_.NfReceive(id);
  ASSERT_TRUE(received.ok());
  net::Packet packet = std::move(received).value();
  const nf::Verdict verdict = firewall.Process(packet);
  if (verdict == nf::Verdict::kForward) {
    ASSERT_TRUE(device_.NfSend(id, std::move(packet)).ok());
    const auto out = device_.TransmitToWire();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(net::Parse(out.value().bytes()).value().Tuple().dst_port, 80);
  }
  EXPECT_EQ(firewall.counters().packets, 1u);
}

TEST_F(IntegrationTest, TwoTenantsTrafficSegregated) {
  const uint64_t tenant_a = LaunchCapture("a", 1111);
  const uint64_t tenant_b = LaunchCapture("b", 2222);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(device_
                    .DeliverFromWire(PacketTo(i % 2 == 0 ? 1111 : 2222,
                                              static_cast<uint16_t>(i)))
                    .ok());
  }
  int a_count = 0, b_count = 0;
  while (device_.NfReceive(tenant_a).ok()) {
    ++a_count;
  }
  while (device_.NfReceive(tenant_b).ok()) {
    ++b_count;
  }
  EXPECT_EQ(a_count, 5);
  EXPECT_EQ(b_count, 5);
  // Neither tenant can read the other's RAM.
  const auto b_pages = device_.memory().PagesOwnedBy(tenant_b);
  ASSERT_FALSE(b_pages.empty());
  EXPECT_FALSE(device_.NfRead(tenant_a,
                              // tenant_a's own mapping ends at 2 pages; any
                              // address beyond faults rather than reaching B.
                              device_.memory().page_bytes() * 2)
                   .ok());
}

TEST_F(IntegrationTest, NatRewritesAcrossTheDevice) {
  const uint64_t id = LaunchCapture("nat", 443);
  nf::Nat nat;
  ASSERT_TRUE(device_.DeliverFromWire(PacketTo(443)).ok());
  auto received = device_.NfReceive(id);
  ASSERT_TRUE(received.ok());
  net::Packet packet = std::move(received).value();
  ASSERT_EQ(nat.Process(packet), nf::Verdict::kForward);
  const auto translated = net::Parse(packet.bytes()).value().Tuple();
  EXPECT_EQ(translated.src_ip, nf::kNatExternalIp);
  ASSERT_TRUE(device_.NfSend(id, std::move(packet)).ok());
  EXPECT_TRUE(device_.TransmitToWire().ok());
}

TEST_F(IntegrationTest, MonitorOverSyntheticTrace) {
  const uint64_t id = LaunchCapture("mon", 0);
  // Steer everything: replace the rule with a wildcard by re-launching.
  ASSERT_TRUE(nic_os_.NfDestroy(id).ok());
  mgmt::FunctionImage image;
  image.name = "mon";
  image.code_and_data.assign(512, 1);
  image.switch_rules.push_back(net::SwitchRule{});  // wildcard
  image.memory_bytes = 4ull << 20;
  const auto mon_id = nic_os_.NfCreate(image);
  ASSERT_TRUE(mon_id.ok());

  nf::Monitor monitor;
  trace::PacketStream stream(trace::TraceConfig::IctfLike(8));
  int processed = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!device_.DeliverFromWire(stream.Next()).ok()) {
      continue;  // RX reservation full: drop, as hardware would
    }
    while (true) {
      auto received = device_.NfReceive(mon_id.value());
      if (!received.ok()) {
        break;
      }
      net::Packet packet = std::move(received).value();
      monitor.Process(packet);
      ++processed;
    }
  }
  EXPECT_GT(processed, 1500);
  EXPECT_GT(monitor.distinct_flows(), 100u);
  EXPECT_EQ(monitor.counters().packets, static_cast<uint64_t>(processed));
}

TEST_F(IntegrationTest, FullAttestedDetourFlow) {
  // Fig. 4a: gateway client -> S-NIC function -> destination, with the
  // function attested and traffic sealed end-to-end.
  const uint64_t id = LaunchCapture("ids", 8443);
  mgmt::SnicFunctionParty function(
      "IDS", &device_, id, vendor_.public_key(),
      mgmt::ExpectedMeasurement(CaptureImage("ids", 8443),
                                device_.config().page_bytes));
  Rng enclave_rng(61);
  crypto::VendorAuthority sgx_vendor(512, enclave_rng);
  mgmt::EnclaveParty gateway("GW", {0xde, 0xad}, sgx_vendor, 512, enclave_rng);

  Rng session_rng(62);
  const mgmt::PairwiseResult pair = mgmt::EstablishChannel(
      function, gateway, crypto::SmallTestGroup(), session_rng);
  ASSERT_TRUE(pair.Ok());

  // The gateway seals a payload; the function opens it after the packet
  // crossed the (untrusted) wire inside a VXLAN tunnel.
  const std::string secret = "inner flow bytes";
  const auto sealed = pair.channel_b->Seal(
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(secret.data()), secret.size()),
      1);

  net::FiveTuple inner;
  inner.src_ip = net::Ipv4FromString("10.0.0.1");
  inner.dst_ip = net::Ipv4FromString("10.0.0.2");
  inner.src_port = 5;
  inner.dst_port = 8443;
  inner.protocol = 6;
  net::PacketBuilder builder;
  builder.SetTuple(inner).SetPayload(
      std::span<const uint8_t>(sealed.data(), sealed.size()));
  ASSERT_TRUE(device_.DeliverFromWire(builder.Build()).ok());

  auto received = device_.NfReceive(id);
  ASSERT_TRUE(received.ok());
  const auto parsed = net::Parse(received.value().bytes());
  ASSERT_TRUE(parsed.ok());
  const auto payload =
      received.value().bytes().subspan(parsed.value().payload_offset);
  const auto opened = pair.channel_a->Open(payload, 1);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(std::string(opened.value().begin(), opened.value().end()),
            secret);
}

TEST_F(IntegrationTest, ChurnLaunchDestroyCycles) {
  // Repeated create/destroy must not leak cores, pages or clusters.
  for (int round = 0; round < 10; ++round) {
    std::vector<uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
      mgmt::FunctionImage image;
      image.name = "churn";
      image.code_and_data.assign(2048, static_cast<uint8_t>(round + i));
      image.memory_bytes = 6ull << 20;
      image.accel_clusters[i % 3] = 2;
      image.switch_rules.push_back(net::SwitchRule{});
      const auto id = nic_os_.NfCreate(image);
      ASSERT_TRUE(id.ok()) << "round " << round << " nf " << i << ": "
                           << id.status().ToString();
      ids.push_back(id.value());
    }
    for (uint64_t id : ids) {
      ASSERT_TRUE(nic_os_.NfDestroy(id).ok());
    }
  }
  EXPECT_EQ(device_.FreeCores(), 15u);
  EXPECT_EQ(device_.LiveNfIds().size(), 0u);
  for (auto type : {accel::AcceleratorType::kDpi, accel::AcceleratorType::kZip,
                    accel::AcceleratorType::kRaid}) {
    EXPECT_EQ(device_.accel_pool().FreeClusters(type), 16u);
  }
}

}  // namespace
}  // namespace snic
