// Tests for the extension features: cross-VPP function chaining (§4.8) and
// the flow-watermarking side channel (§4.5).

#include <gtest/gtest.h>

#include "src/core/chaining.h"
#include "src/core/watermark.h"
#include "src/mgmt/nic_os.h"
#include "src/net/parser.h"

namespace snic {
namespace {

class ExtensionTest : public ::testing::Test {
 protected:
  ExtensionTest()
      : rng_(90), vendor_(512, rng_), device_(Config(), vendor_),
        nic_os_(&device_) {}

  static core::SnicConfig Config() {
    core::SnicConfig config;
    config.num_cores = 8;
    config.dram_bytes = 64ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  uint64_t Launch(const char* name, uint16_t port) {
    mgmt::FunctionImage image;
    image.name = name;
    image.code_and_data.assign(1024, 0x33);
    image.memory_bytes = 4ull << 20;
    net::SwitchRule rule;
    rule.dst_port = port;
    image.switch_rules.push_back(rule);
    const auto id = nic_os_.NfCreate(image);
    SNIC_CHECK(id.ok());
    return id.value();
  }

  static net::Packet PacketTo(uint16_t port) {
    net::FiveTuple t;
    t.src_ip = net::Ipv4FromString("10.0.0.1");
    t.dst_ip = net::Ipv4FromString("10.0.0.2");
    t.src_port = 999;
    t.dst_port = port;
    t.protocol = 6;
    return net::PacketBuilder().SetTuple(t).Build();
  }

  Rng rng_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  mgmt::NicOs nic_os_;
};

// ---- Function chaining ------------------------------------------------------

TEST_F(ExtensionTest, ChainMovesFramesProducerToConsumer) {
  const uint64_t producer = Launch("p", 1000);
  const uint64_t consumer = Launch("c", 2000);
  core::ChainManager chains(&device_);
  const auto link = chains.CreateLink({producer, consumer, 4});
  ASSERT_TRUE(link.ok());

  // Producer emits three frames; one tick moves all (within rate).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(device_.NfSend(producer, PacketTo(1000)).ok());
  }
  chains.TickAll();
  int received = 0;
  while (device_.NfReceive(consumer).ok()) {
    ++received;
  }
  EXPECT_EQ(received, 3);
  EXPECT_EQ(chains.link(link.value()).stats().frames_moved, 3u);
}

TEST_F(ExtensionTest, ChainRateBoundPerTick) {
  const uint64_t producer = Launch("p", 1000);
  const uint64_t consumer = Launch("c", 2000);
  core::ChainManager chains(&device_);
  ASSERT_TRUE(chains.CreateLink({producer, consumer, 2}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(device_.NfSend(producer, PacketTo(1000)).ok());
  }
  chains.TickAll();  // moves exactly 2
  int received = 0;
  while (device_.NfReceive(consumer).ok()) {
    ++received;
  }
  EXPECT_EQ(received, 2);
  for (int t = 0; t < 4; ++t) {
    chains.TickAll();
  }
  while (device_.NfReceive(consumer).ok()) {
    ++received;
  }
  EXPECT_EQ(received, 10);
}

TEST_F(ExtensionTest, ChainValidation) {
  const uint64_t a = Launch("a", 1000);
  core::ChainManager chains(&device_);
  EXPECT_EQ(chains.CreateLink({a, a, 1}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(chains.CreateLink({a, 999, 1}).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(chains.CreateLink({a, 999, 0}).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(ExtensionTest, ChainRemovalOnTeardown) {
  const uint64_t producer = Launch("p", 1000);
  const uint64_t consumer = Launch("c", 2000);
  core::ChainManager chains(&device_);
  ASSERT_TRUE(chains.CreateLink({producer, consumer, 2}).ok());
  chains.RemoveLinksFor(consumer);
  EXPECT_EQ(chains.link_count(), 0u);
}

TEST_F(ExtensionTest, ChainThreeStagePipeline) {
  // fw -> nat -> monitor style chain: frames traverse two links in order.
  const uint64_t s1 = Launch("s1", 1000);
  const uint64_t s2 = Launch("s2", 2000);
  const uint64_t s3 = Launch("s3", 3000);
  core::ChainManager chains(&device_);
  ASSERT_TRUE(chains.CreateLink({s1, s2, 8}).ok());
  ASSERT_TRUE(chains.CreateLink({s2, s3, 8}).ok());

  ASSERT_TRUE(device_.NfSend(s1, PacketTo(1000)).ok());
  chains.TickAll();  // s1 -> s2
  auto at_s2 = device_.NfReceive(s2);
  ASSERT_TRUE(at_s2.ok());
  // Stage 2 "processes" and forwards.
  ASSERT_TRUE(device_.NfSend(s2, std::move(at_s2).value()).ok());
  chains.TickAll();  // s2 -> s3
  EXPECT_TRUE(device_.NfReceive(s3).ok());
}

// ---- Watermarking ------------------------------------------------------------

TEST(WatermarkTest, FcfsLeaksTheWatermark) {
  const auto result = core::RunWatermarkAttack(sim::BusPolicy::kFcfs);
  EXPECT_GT(result.bit_accuracy, 0.9);
  EXPECT_GT(result.mean_latency_bit1, result.mean_latency_bit0 + 1.0);
}

TEST(WatermarkTest, TemporalPartitionDestroysTheWatermark) {
  const auto result =
      core::RunWatermarkAttack(sim::BusPolicy::kTemporalPartition);
  EXPECT_LT(result.bit_accuracy, 0.65);  // chance-level decoding
  EXPECT_NEAR(result.mean_latency_bit1, result.mean_latency_bit0, 0.5);
}

TEST(WatermarkTest, RoundRobinStillLeaks) {
  const auto result = core::RunWatermarkAttack(sim::BusPolicy::kRoundRobin);
  EXPECT_GT(result.bit_accuracy, 0.75);
}

}  // namespace
}  // namespace snic
