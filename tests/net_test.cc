// Tests for src/net: header parsing/building, checksums, 5-tuples, VXLAN
// encapsulation, and switch-rule matching.

#include <gtest/gtest.h>

#include "src/net/five_tuple.h"
#include "src/net/headers.h"
#include "src/net/packet.h"
#include "src/net/parser.h"
#include "src/net/switching.h"

namespace snic::net {
namespace {

FiveTuple TestTuple() {
  FiveTuple t;
  t.src_ip = Ipv4FromString("10.1.2.3");
  t.dst_ip = Ipv4FromString("192.168.7.9");
  t.src_port = 1234;
  t.dst_port = 443;
  t.protocol = static_cast<uint8_t>(IpProto::kTcp);
  return t;
}

TEST(HeadersTest, Ipv4StringRoundTrip) {
  EXPECT_EQ(Ipv4ToString(Ipv4FromString("1.2.3.4")), "1.2.3.4");
  EXPECT_EQ(Ipv4ToString(Ipv4FromString("255.255.255.255")),
            "255.255.255.255");
  EXPECT_EQ(Ipv4FromString("0.0.0.1"), 1u);
}

TEST(HeadersTest, MacToString) {
  const MacAddress mac = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  EXPECT_EQ(MacToString(mac), "de:ad:be:ef:00:01");
}

TEST(FiveTupleTest, EqualityAndReversal) {
  const FiveTuple t = TestTuple();
  EXPECT_EQ(t, t);
  const FiveTuple r = t.Reversed();
  EXPECT_EQ(r.src_ip, t.dst_ip);
  EXPECT_EQ(r.dst_port, t.src_port);
  EXPECT_EQ(r.Reversed(), t);
}

TEST(FiveTupleTest, HashDistinguishes) {
  FiveTuple a = TestTuple();
  FiveTuple b = a;
  b.src_port++;
  EXPECT_NE(FiveTupleHash{}(a), FiveTupleHash{}(b));
  EXPECT_EQ(FiveTupleHash{}(a), FiveTupleHash{}(TestTuple()));
}

TEST(ParserTest, BuildParseRoundTripTcp) {
  const FiveTuple t = TestTuple();
  const Packet p = PacketBuilder().SetTuple(t).SetTcpFlags(kTcpSyn).Build();
  const auto parsed = Parse(p.bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Tuple(), t);
  ASSERT_TRUE(parsed.value().tcp.has_value());
  EXPECT_TRUE(parsed.value().tcp->Syn());
  EXPECT_FALSE(parsed.value().tcp->Ack());
}

TEST(ParserTest, BuildParseRoundTripUdp) {
  FiveTuple t = TestTuple();
  t.protocol = static_cast<uint8_t>(IpProto::kUdp);
  const Packet p = PacketBuilder().SetTuple(t).Build();
  const auto parsed = Parse(p.bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Tuple(), t);
  EXPECT_TRUE(parsed.value().udp.has_value());
  EXPECT_FALSE(parsed.value().tcp.has_value());
}

TEST(ParserTest, PayloadCarried) {
  const std::vector<uint8_t> payload = {'h', 'i', '!', 0x00, 0xff};
  const Packet p = PacketBuilder()
                       .SetTuple(TestTuple())
                       .SetPayload(std::span<const uint8_t>(payload.data(),
                                                            payload.size()))
                       .Build();
  const auto parsed = Parse(p.bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().payload_len, payload.size());
  const auto got = p.bytes().subspan(parsed.value().payload_offset);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), got.begin()));
}

TEST(ParserTest, FrameLenPadsExactly) {
  for (size_t len : {64u, 128u, 512u, 1514u, 9000u}) {
    const Packet p = PacketBuilder().SetFrameLen(len).Build();
    EXPECT_EQ(p.size(), len);
    EXPECT_TRUE(Parse(p.bytes()).ok());
  }
}

TEST(ParserTest, TruncatedFrameRejected) {
  const Packet p = PacketBuilder().Build();
  const auto truncated = p.bytes().first(20);
  EXPECT_FALSE(Parse(truncated).ok());
}

TEST(ParserTest, NonIpv4Rejected) {
  Packet p = PacketBuilder().Build();
  p.mutable_bytes()[12] = 0x08;
  p.mutable_bytes()[13] = 0x06;  // ARP
  EXPECT_FALSE(Parse(p.bytes()).ok());
}

TEST(ParserTest, BadIhlRejected) {
  Packet p = PacketBuilder().Build();
  p.mutable_bytes()[14] = 0x42;  // IHL = 2 words (8 bytes, invalid)
  EXPECT_FALSE(Parse(p.bytes()).ok());
}

TEST(ChecksumTest, BuilderChecksumValidates) {
  const Packet p = PacketBuilder().SetTuple(TestTuple()).Build();
  // Recomputing the checksum over the IPv4 header including the stored
  // checksum must yield zero (ones-complement property).
  const auto header = p.bytes().subspan(kEthernetHeaderLen, kIpv4MinHeaderLen);
  EXPECT_EQ(InternetChecksum(header), 0x0000);
}

TEST(ChecksumTest, KnownVector) {
  // RFC 1071 example-style check: checksum of {0x00,0x01,0xf2,0x03,0xf4,0xf5,
  // 0xf6,0xf7} = 0x220d.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(std::span<const uint8_t>(data, sizeof(data))),
            0x220d);
}

TEST(ChecksumTest, OddLengthHandled) {
  const uint8_t data[] = {0x01, 0x02, 0x03};
  // 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(InternetChecksum(std::span<const uint8_t>(data, sizeof(data))),
            0xfbfd);
}

TEST(VxlanTest, EncapsulationParsed) {
  FiveTuple outer;
  outer.src_ip = Ipv4FromString("172.16.0.1");
  outer.dst_ip = Ipv4FromString("172.16.0.2");
  outer.src_port = 49152;
  outer.dst_port = kVxlanUdpPort;
  outer.protocol = static_cast<uint8_t>(IpProto::kUdp);
  const Packet p =
      PacketBuilder().SetTuple(TestTuple()).BuildVxlan(0x123456, outer);
  const auto parsed = Parse(p.bytes());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().vxlan.has_value());
  EXPECT_TRUE(parsed.value().vxlan->VniValid());
  EXPECT_EQ(parsed.value().vxlan->vni, 0x123456u);
  // Outer tuple is the UDP tunnel.
  EXPECT_EQ(parsed.value().Tuple().dst_port, kVxlanUdpPort);
}

TEST(SwitchRuleTest, WildcardMatchesEverything) {
  const SwitchRule rule;
  const auto parsed = Parse(PacketBuilder().SetTuple(TestTuple()).Build().bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(rule.Matches(parsed.value()));
  EXPECT_EQ(rule.ToString(), "<any>");
}

TEST(SwitchRuleTest, PrefixMatching) {
  SwitchRule rule;
  rule.src_ip = SwitchRule::IpPrefix{Ipv4FromString("10.0.0.0"), 8};
  const auto hit = Parse(PacketBuilder().SetTuple(TestTuple()).Build().bytes());
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(rule.Matches(hit.value()));

  FiveTuple other = TestTuple();
  other.src_ip = Ipv4FromString("11.0.0.1");
  const auto miss = Parse(PacketBuilder().SetTuple(other).Build().bytes());
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(rule.Matches(miss.value()));
}

TEST(SwitchRuleTest, PortAndProtocolMatching) {
  SwitchRule rule;
  rule.dst_port = 443;
  rule.protocol = static_cast<uint8_t>(IpProto::kTcp);
  const auto hit = Parse(PacketBuilder().SetTuple(TestTuple()).Build().bytes());
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(rule.Matches(hit.value()));

  FiveTuple udp = TestTuple();
  udp.protocol = static_cast<uint8_t>(IpProto::kUdp);
  const auto miss = Parse(PacketBuilder().SetTuple(udp).Build().bytes());
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(rule.Matches(miss.value()));
}

TEST(SwitchRuleTest, VniMatching) {
  SwitchRule rule;
  rule.vni = 42;
  FiveTuple outer;
  outer.src_ip = Ipv4FromString("172.16.0.1");
  outer.dst_ip = Ipv4FromString("172.16.0.2");
  outer.src_port = 40000;
  outer.dst_port = kVxlanUdpPort;
  outer.protocol = static_cast<uint8_t>(IpProto::kUdp);

  const auto hit =
      Parse(PacketBuilder().SetTuple(TestTuple()).BuildVxlan(42, outer).bytes());
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(rule.Matches(hit.value()));

  const auto wrong_vni =
      Parse(PacketBuilder().SetTuple(TestTuple()).BuildVxlan(43, outer).bytes());
  ASSERT_TRUE(wrong_vni.ok());
  EXPECT_FALSE(rule.Matches(wrong_vni.value()));

  // Non-VXLAN traffic can never match a VNI rule.
  const auto plain = Parse(PacketBuilder().SetTuple(TestTuple()).Build().bytes());
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(rule.Matches(plain.value()));
}

}  // namespace
}  // namespace snic::net
