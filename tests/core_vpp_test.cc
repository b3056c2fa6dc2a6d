// Tests for the virtual packet pipeline: switch-rule steering, buffer
// reservations, FIFO dequeue order, and stats.

#include <gtest/gtest.h>

#include "src/core/vpp.h"
#include "src/net/parser.h"

namespace snic::core {
namespace {

net::Packet PacketWithPort(uint16_t dst_port, size_t frame_len = 0) {
  net::FiveTuple t;
  t.src_ip = net::Ipv4FromString("10.0.0.1");
  t.dst_ip = net::Ipv4FromString("10.0.0.2");
  t.src_port = 1000;
  t.dst_port = dst_port;
  t.protocol = 6;
  net::PacketBuilder b;
  b.SetTuple(t);
  if (frame_len != 0) {
    b.SetFrameLen(frame_len);
  }
  return b.Build();
}

VppConfig ConfigForPort(uint16_t port) {
  VppConfig config;
  net::SwitchRule rule;
  rule.dst_port = port;
  config.rules.push_back(rule);
  return config;
}

TEST(VppTest, MatchesOwnRules) {
  VirtualPacketPipeline vpp(1, ConfigForPort(80));
  const auto hit = net::Parse(PacketWithPort(80).bytes());
  const auto miss = net::Parse(PacketWithPort(443).bytes());
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(vpp.Matches(hit.value()));
  EXPECT_FALSE(vpp.Matches(miss.value()));
}

TEST(VppTest, RxFifoOrder) {
  VirtualPacketPipeline vpp(1, ConfigForPort(80));
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 128)).ok());
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 512)).ok());
  const auto first = vpp.DequeueRx();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().size(), 128u);
  EXPECT_EQ(vpp.DequeueRx().value().size(), 512u);
  EXPECT_FALSE(vpp.RxPending());
  EXPECT_FALSE(vpp.DequeueRx().ok());
}

TEST(VppTest, RxBufferReservationEnforced) {
  VppConfig config = ConfigForPort(80);
  config.rx_buffer_bytes = 1000;
  VirtualPacketPipeline vpp(1, config);
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 512)).ok());
  const Status overflow = vpp.EnqueueRx(PacketWithPort(80, 512));
  EXPECT_EQ(overflow.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(vpp.stats().rx_dropped_full, 1u);
  // Draining frees the reservation.
  ASSERT_TRUE(vpp.DequeueRx().ok());
  EXPECT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 512)).ok());
}

TEST(VppTest, TxPathAndStats) {
  VirtualPacketPipeline vpp(1, ConfigForPort(80));
  ASSERT_TRUE(vpp.EnqueueTx(PacketWithPort(80, 256)).ok());
  EXPECT_TRUE(vpp.TxPending());
  const auto out = vpp.DequeueTx();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 256u);
  EXPECT_EQ(vpp.stats().tx_packets, 1u);
  EXPECT_EQ(vpp.stats().tx_bytes, 256u);
}

TEST(VppTest, TxDescriptorBound) {
  VppConfig config = ConfigForPort(80);
  config.output_descriptor_bytes = 128;  // 2 descriptors of 64 B
  VirtualPacketPipeline vpp(1, config);
  ASSERT_TRUE(vpp.EnqueueTx(PacketWithPort(80, 64)).ok());
  ASSERT_TRUE(vpp.EnqueueTx(PacketWithPort(80, 64)).ok());
  EXPECT_EQ(vpp.EnqueueTx(PacketWithPort(80, 64)).code(),
            ErrorCode::kResourceExhausted);
}

TEST(VppTest, SchedulerTlbSizedPerTable4) {
  VirtualPacketPipeline vpp(1, VppConfig{});
  EXPECT_EQ(vpp.scheduler_tlb().max_entries(), 3u);  // PB + PDB + ODB
}

TEST(VppTest, StatsCountRxBytes) {
  VirtualPacketPipeline vpp(1, ConfigForPort(80));
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 100)).ok());
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 200)).ok());
  EXPECT_EQ(vpp.stats().rx_packets, 2u);
  EXPECT_EQ(vpp.stats().rx_bytes, 300u);
}

}  // namespace
}  // namespace snic::core
