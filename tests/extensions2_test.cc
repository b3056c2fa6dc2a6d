// Tests for the second wave of extensions: the packet-compressor NF and the
// §4.8 autoscaler.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/fault/fault.h"
#include "src/mgmt/autoscaler.h"
#include "src/net/parser.h"
#include "src/nf/compressor.h"

namespace snic {
namespace {

// ---- Compressor NF -----------------------------------------------------------

net::Packet TextPacket(size_t payload_len) {
  std::vector<uint8_t> payload(payload_len);
  static constexpr char kText[] = "the quick brown fox jumps over the dog ";
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(kText[i % (sizeof(kText) - 1)]);
  }
  return net::PacketBuilder()
      .SetPayload(std::span<const uint8_t>(payload.data(), payload.size()))
      .Build();
}

TEST(CompressorTest, CompressiblepayloadShrinksAndRoundTrips) {
  nf::Compressor compressor;
  net::Packet packet = TextPacket(1024);
  const size_t original_size = packet.size();
  const std::vector<uint8_t> original(packet.bytes().begin(),
                                      packet.bytes().end());

  EXPECT_EQ(compressor.Process(packet), nf::Verdict::kForward);
  EXPECT_LT(packet.size(), original_size);
  EXPECT_EQ(compressor.packets_compressed(), 1u);
  EXPECT_GT(compressor.CompressionRatio(), 1.5);
  // The compressed frame is still a valid IPv4 packet with a good checksum.
  const auto parsed = net::Parse(packet.bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(net::InternetChecksum(packet.bytes().subspan(
                net::kEthernetHeaderLen, net::kIpv4MinHeaderLen)),
            0);

  // Decompress restores the original frame bytes.
  ASSERT_TRUE(nf::Compressor::Decompress(packet));
  EXPECT_EQ(packet.size(), original_size);
  EXPECT_TRUE(std::equal(original.begin(), original.end(),
                         packet.bytes().begin()));
}

TEST(CompressorTest, IncompressiblePayloadPassesThrough) {
  nf::Compressor compressor;
  Rng rng(5);
  std::vector<uint8_t> payload(512);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  net::Packet packet =
      net::PacketBuilder()
          .SetPayload(std::span<const uint8_t>(payload.data(), payload.size()))
          .Build();
  const size_t original_size = packet.size();
  EXPECT_EQ(compressor.Process(packet), nf::Verdict::kForward);
  EXPECT_EQ(packet.size(), original_size);
  EXPECT_EQ(compressor.packets_compressed(), 0u);
  EXPECT_FALSE(nf::Compressor::Decompress(packet));  // not marked
}

TEST(CompressorTest, SmallPayloadSkipped) {
  nf::Compressor compressor;
  net::Packet packet = TextPacket(16);
  const size_t original_size = packet.size();
  compressor.Process(packet);
  EXPECT_EQ(packet.size(), original_size);
  EXPECT_EQ(compressor.packets_compressed(), 0u);
}

TEST(CompressorTest, CountersConsistent) {
  nf::Compressor compressor;
  for (int i = 0; i < 5; ++i) {
    net::Packet packet = TextPacket(800);
    compressor.Process(packet);
  }
  EXPECT_GT(compressor.bytes_in(), compressor.bytes_out());
  EXPECT_EQ(compressor.counters().packets, 5u);
}

// ---- Autoscaler --------------------------------------------------------------

class AutoscalerTest : public ::testing::Test {
 protected:
  AutoscalerTest()
      : rng_(70), vendor_(512, rng_), device_(Config(), vendor_),
        nic_os_(&device_) {}

  static core::SnicConfig Config() {
    core::SnicConfig config;
    config.num_cores = 16;
    config.dram_bytes = 128ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  static mgmt::AutoscalerConfig ScalerConfig() {
    mgmt::AutoscalerConfig config;
    config.image.name = "unit";
    config.image.code_and_data.assign(512, 0x55);
    config.image.memory_bytes = 4ull << 20;
    config.image.switch_rules.push_back(net::SwitchRule{});
    config.capacity_per_instance = 100.0;  // e.g. kpps
    config.min_instances = 1;
    config.max_instances = 6;
    return config;
  }

  Rng rng_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  mgmt::NicOs nic_os_;
};

TEST_F(AutoscalerTest, StartsAtMinInstances) {
  mgmt::Autoscaler scaler(&nic_os_, ScalerConfig());
  EXPECT_EQ(scaler.instances(), 1u);
  EXPECT_EQ(device_.LiveNfIds().size(), 1u);
}

TEST_F(AutoscalerTest, ScalesUpUnderLoad) {
  mgmt::Autoscaler scaler(&nic_os_, ScalerConfig());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scaler.Step(500.0).ok());  // needs 5 instances at 100 each
  }
  EXPECT_GE(scaler.instances(), 5u);
  EXPECT_GE(scaler.stats().launches, 5u);
  EXPECT_GT(scaler.stats().launch_ms_paid, 0.0);
}

TEST_F(AutoscalerTest, ScalesDownWhenIdleWithHysteresis) {
  mgmt::Autoscaler scaler(&nic_os_, ScalerConfig());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scaler.Step(500.0).ok());
  }
  const uint32_t peak = scaler.instances();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(scaler.Step(120.0).ok());
  }
  EXPECT_LT(scaler.instances(), peak);
  EXPECT_GE(scaler.instances(), 2u);  // 120 load still needs 2 instances
  EXPECT_GT(scaler.stats().teardowns, 0u);
}

TEST_F(AutoscalerTest, RespectsMaxInstances) {
  mgmt::Autoscaler scaler(&nic_os_, ScalerConfig());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(scaler.Step(10'000.0).ok());
  }
  EXPECT_EQ(scaler.instances(), 6u);
  EXPECT_GT(scaler.stats().overload_steps, 0u);
}

TEST_F(AutoscalerTest, DestructorReleasesEverything) {
  {
    mgmt::Autoscaler scaler(&nic_os_, ScalerConfig());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(scaler.Step(400.0).ok());
    }
    EXPECT_GT(device_.LiveNfIds().size(), 1u);
  }
  EXPECT_TRUE(device_.LiveNfIds().empty());
  EXPECT_EQ(device_.FreeCores(), 15u);
}

TEST_F(AutoscalerTest, NoFlappingAtSteadyLoad) {
  mgmt::Autoscaler scaler(&nic_os_, ScalerConfig());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scaler.Step(260.0).ok());
  }
  const uint64_t launches_settled = scaler.stats().launches;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(scaler.Step(260.0).ok());
  }
  EXPECT_EQ(scaler.stats().launches, launches_settled);
  EXPECT_EQ(scaler.stats().teardowns, 0u);
}

TEST_F(AutoscalerTest, StepReturnsLaunchError) {
  fault::FaultPlane plane;
  fault::FaultRule rule;
  rule.site = std::string(fault::sites::kNfLaunch);
  rule.skip = 1;   // the constructor's min-instance launch must succeed
  rule.count = 1;  // then the first scale-up fails once
  plane.AddRule(rule);
  fault::ScopedFaultPlane scoped(&plane);

  mgmt::Autoscaler scaler(&nic_os_, ScalerConfig());
  ASSERT_EQ(scaler.instances(), 1u);
  EXPECT_EQ(scaler.Step(500.0).code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(scaler.instances(), 1u);
  EXPECT_EQ(scaler.stats().launches, 1u);
  // The next step decides afresh from the load and launches.
  ASSERT_TRUE(scaler.Step(500.0).ok());
  EXPECT_EQ(scaler.instances(), 2u);
}

}  // namespace
}  // namespace snic
