// Randomized round-trip and mutation fuzzing for the wire formats that
// cross trust boundaries: Ethernet/IPv4 frames (net::Parser), attestation
// quotes (core::attestation_wire), and the SNTC trace codec
// (sim::TraceDecoder, docs/PERFORMANCE.md).
//
// Invariants under fuzz: parsing arbitrary bytes never crashes; a frame
// built by PacketBuilder parses back to exactly the inputs and reserializes
// byte-identically; ParseStrict never accepts a frame whose IPv4 header
// checksum is wrong; a mutated quote either fails to deserialize or fails
// verification (unless the mutation canonicalizes away byte-identically);
// the trace decoder decodes or rejects every input deterministically.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/attestation.h"
#include "src/core/attestation_wire.h"
#include "src/core/snic_device.h"
#include "src/core/vnic/descriptor.h"
#include "src/mgmt/nic_os.h"
#include "src/mgmt/verifier.h"
#include "src/net/parser.h"
#include "src/obs/trace_ring.h"
#include "src/scenario/generator.h"
#include "src/scenario/spec.h"
#include "src/sim/mem_access.h"
#include "tests/scenario_spec_cases.h"

namespace snic {
namespace {

using net::FiveTuple;
using net::Packet;
using net::PacketBuilder;
using net::ParsedPacket;

FiveTuple RandomTuple(Rng& rng, bool tcp) {
  FiveTuple tuple;
  tuple.src_ip = rng.NextU32();
  tuple.dst_ip = rng.NextU32();
  tuple.src_port = static_cast<uint16_t>(rng.NextBounded(65536));
  tuple.dst_port = static_cast<uint16_t>(rng.NextBounded(65536));
  tuple.protocol = static_cast<uint8_t>(tcp ? net::IpProto::kTcp
                                            : net::IpProto::kUdp);
  return tuple;
}

std::vector<uint8_t> RandomPayload(Rng& rng, size_t max_len) {
  std::vector<uint8_t> payload(rng.NextBounded(max_len + 1));
  for (auto& byte : payload) {
    byte = static_cast<uint8_t>(rng.NextBounded(256));
  }
  return payload;
}

TEST(ParserFuzzTest, BuildParseRebuildRoundTripsTcpAndUdp) {
  Rng rng(2024);
  for (int iter = 0; iter < 400; ++iter) {
    const bool tcp = rng.NextBounded(2) == 0;
    const FiveTuple tuple = RandomTuple(rng, tcp);
    const std::vector<uint8_t> payload = RandomPayload(rng, 512);
    const uint8_t ttl = static_cast<uint8_t>(1 + rng.NextBounded(255));
    const uint8_t flags = static_cast<uint8_t>(rng.NextBounded(256));

    PacketBuilder builder;
    builder.SetTuple(tuple).SetTtl(ttl).SetPayload(payload);
    if (tcp) {
      builder.SetTcpFlags(flags);
    }
    const Packet packet = builder.Build();

    const auto parsed = net::ParseStrict(packet.bytes());
    ASSERT_TRUE(parsed.ok()) << iter;
    const ParsedPacket& p = parsed.value();
    EXPECT_EQ(p.Tuple().src_ip, tuple.src_ip);
    EXPECT_EQ(p.Tuple().dst_ip, tuple.dst_ip);
    EXPECT_EQ(p.Tuple().src_port, tuple.src_port);
    EXPECT_EQ(p.Tuple().dst_port, tuple.dst_port);
    EXPECT_EQ(p.Tuple().protocol, tuple.protocol);
    EXPECT_EQ(p.ip.ttl, ttl);
    EXPECT_EQ(p.tcp.has_value(), tcp);
    EXPECT_EQ(p.udp.has_value(), !tcp);
    ASSERT_EQ(p.payload_len, payload.size());

    // Serialize the parsed view back through the builder: the canonical
    // encoder over parsed fields must reproduce the original frame exactly,
    // and the reparse must agree.
    PacketBuilder rebuilt;
    rebuilt.SetMacs(p.eth.src, p.eth.dst)
        .SetTuple(p.Tuple())
        .SetTtl(p.ip.ttl)
        .SetPayload(packet.bytes().subspan(p.payload_offset, p.payload_len));
    if (tcp) {
      rebuilt.SetTcpFlags(p.tcp->flags);
    }
    const Packet again = rebuilt.Build();
    ASSERT_EQ(again.size(), packet.size()) << iter;
    EXPECT_TRUE(std::equal(again.bytes().begin(), again.bytes().end(),
                           packet.bytes().begin()))
        << iter;
    EXPECT_TRUE(net::ParseStrict(again.bytes()).ok());
  }
}

TEST(ParserFuzzTest, VxlanRoundTripExposesInnerFrame) {
  Rng rng(7);
  for (int iter = 0; iter < 100; ++iter) {
    const FiveTuple inner_tuple = RandomTuple(rng, /*tcp=*/true);
    const FiveTuple outer_tuple = RandomTuple(rng, /*tcp=*/false);
    const uint32_t vni = static_cast<uint32_t>(rng.NextBounded(1 << 24));
    PacketBuilder builder;
    builder.SetTuple(inner_tuple).SetPayload(RandomPayload(rng, 128));
    const Packet packet = builder.BuildVxlan(vni, outer_tuple);

    const auto parsed = net::ParseStrict(packet.bytes());
    ASSERT_TRUE(parsed.ok()) << iter;
    const ParsedPacket& p = parsed.value();
    ASSERT_TRUE(p.udp.has_value());
    EXPECT_EQ(p.udp->dst_port, net::kVxlanUdpPort);
    ASSERT_TRUE(p.vxlan.has_value());
    EXPECT_EQ(p.vxlan->vni, vni);

    // The encapsulated frame (after the VXLAN header) is itself parseable
    // and carries the inner tuple.
    const auto inner = net::ParseStrict(packet.bytes().subspan(
        p.payload_offset + net::kVxlanHeaderLen));
    ASSERT_TRUE(inner.ok()) << iter;
    EXPECT_EQ(inner.value().Tuple().src_ip, inner_tuple.src_ip);
    EXPECT_EQ(inner.value().Tuple().dst_port, inner_tuple.dst_port);
  }
}

TEST(ParserFuzzTest, EveryTruncationParsesOrFailsCleanly) {
  Rng rng(11);
  for (const bool tcp : {true, false}) {
    PacketBuilder builder;
    builder.SetTuple(RandomTuple(rng, tcp)).SetPayload(RandomPayload(rng, 64));
    const Packet packet =
        tcp ? builder.Build()
            : builder.BuildVxlan(42, RandomTuple(rng, /*tcp=*/false));
    for (size_t len = 0; len <= packet.size(); ++len) {
      const auto parsed = net::Parse(packet.bytes().first(len));
      if (parsed.ok()) {
        // A structurally valid prefix must stay inside the buffer.
        EXPECT_LE(parsed.value().payload_offset, len);
        EXPECT_EQ(parsed.value().payload_len,
                  len - parsed.value().payload_offset);
      }
      (void)net::ParseStrict(packet.bytes().first(len));
    }
  }
}

TEST(ParserFuzzTest, StrictParseRejectsCorruptedIpv4Checksum) {
  Rng rng(13);
  for (int iter = 0; iter < 300; ++iter) {
    PacketBuilder builder;
    builder.SetTuple(RandomTuple(rng, rng.NextBounded(2) == 0))
        .SetPayload(RandomPayload(rng, 64));
    Packet packet = builder.Build();
    ASSERT_TRUE(net::ParseStrict(packet.bytes()).ok());

    // Flip one bit anywhere in the IPv4 header: the ones-complement sum
    // changes by a non-multiple of 0xffff, so strict parsing must reject
    // (or fail structurally, e.g. an IHL flip).
    const size_t l3 = net::kEthernetHeaderLen;
    const size_t pos = l3 + rng.NextBounded(net::kIpv4MinHeaderLen);
    packet.mutable_bytes()[pos] ^= static_cast<uint8_t>(
        1u << rng.NextBounded(8));
    EXPECT_FALSE(net::ParseStrict(packet.bytes()).ok()) << iter;
  }
}

TEST(ParserFuzzTest, RandomMutantsNeverCrash) {
  Rng rng(17);
  PacketBuilder builder;
  builder.SetTuple(RandomTuple(rng, /*tcp=*/true))
      .SetPayload(RandomPayload(rng, 256));
  const Packet packet = builder.Build();
  for (int iter = 0; iter < 2'000; ++iter) {
    std::vector<uint8_t> mutant(packet.bytes().begin(), packet.bytes().end());
    const size_t flips = 1 + rng.NextBounded(8);
    for (size_t f = 0; f < flips; ++f) {
      mutant[rng.NextBounded(mutant.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    (void)net::Parse(mutant);
    (void)net::ParseStrict(mutant);
  }
  // Pure garbage of every small length.
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> garbage(rng.NextBounded(128));
    for (auto& byte : garbage) {
      byte = static_cast<uint8_t>(rng.NextBounded(256));
    }
    (void)net::Parse(garbage);
    (void)net::ParseStrict(garbage);
  }
}

// ---- Attestation-quote wire fuzz -------------------------------------------

class QuoteFuzzTest : public ::testing::Test {
 protected:
  QuoteFuzzTest() : rng_(31), vendor_(512, rng_) {
    core::SnicConfig config;
    config.num_cores = 4;
    config.dram_bytes = 16ull << 20;
    config.rsa_modulus_bits = 512;
    device_ = std::make_unique<core::SnicDevice>(config, vendor_);
    auto pages = device_->memory().AllocatePages(1, core::kPageNicOs);
    core::NfLaunchArgs args;
    args.core_mask = 0b10;
    args.image_pages = pages.value();
    nf_id_ = device_->NfLaunch(args).value();
  }

  core::AttestationQuote MakeQuote() {
    core::AttestationRequest request;
    request.group = crypto::SmallTestGroup();
    request.nonce = {9, 8, 7, 6};
    crypto::DhParticipant dh(request.group, rng_);
    request.g_x = dh.public_value();
    return device_->NfAttest(nf_id_, request).value();
  }

  Rng rng_;
  crypto::VendorAuthority vendor_;
  std::unique_ptr<core::SnicDevice> device_;
  uint64_t nf_id_ = 0;
};

TEST_F(QuoteFuzzTest, SerializationIsCanonicalAndRoundTrips) {
  for (int iter = 0; iter < 5; ++iter) {
    const auto quote = MakeQuote();
    const auto bytes = core::SerializeQuote(quote);
    const auto restored = core::DeserializeQuote(bytes);
    ASSERT_TRUE(restored.ok());
    // Canonical encoding: reserializing the decoded quote is a fixpoint.
    EXPECT_EQ(core::SerializeQuote(restored.value()), bytes);
    EXPECT_TRUE(core::VerifyQuote(vendor_.public_key(), restored.value(),
                                  {9, 8, 7, 6})
                    .Ok());
  }
}

TEST_F(QuoteFuzzTest, EveryTruncationIsRejected) {
  const auto bytes = core::SerializeQuote(MakeQuote());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(core::DeserializeQuote(
                     std::span<const uint8_t>(bytes.data(), len))
                     .ok())
        << len;
  }
}

TEST_F(QuoteFuzzTest, TrailingBytesAreRejected) {
  auto bytes = core::SerializeQuote(MakeQuote());
  Rng rng(3);
  for (int extra = 1; extra <= 16; ++extra) {
    bytes.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
    EXPECT_FALSE(core::DeserializeQuote(bytes).ok()) << extra;
  }
}

TEST_F(QuoteFuzzTest, MutatedQuotesNeverVerify) {
  const auto quote = MakeQuote();
  const auto bytes = core::SerializeQuote(quote);
  Rng rng(41);
  for (int iter = 0; iter < 400; ++iter) {
    auto mutant = bytes;
    const size_t flips = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      mutant[rng.NextBounded(mutant.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    const auto restored = core::DeserializeQuote(mutant);
    if (!restored.ok()) {
      continue;  // clean structural rejection
    }
    if (core::SerializeQuote(restored.value()) == bytes) {
      continue;  // canonicalization absorbed the flips (e.g. leading zeros)
    }
    EXPECT_FALSE(core::VerifyQuote(vendor_.public_key(), restored.value(),
                                   {9, 8, 7, 6})
                     .Ok())
        << iter;
  }
}

// Every byte of a genuine device quote, flipped in transit one position at a
// time: the challenger's one check (decode, then verify) refuses each mutant
// with PermissionDenied. No flip yields a verified quote, and none aborts.
TEST_F(QuoteFuzzTest, EveryFlippedByteFailsTheChallenge) {
  const std::vector<uint8_t> nonce = {9, 8, 7, 6};
  const crypto::Sha256Digest expected = device_->MeasurementOf(nf_id_).value();
  const auto bytes = core::SerializeQuote(MakeQuote());
  ASSERT_TRUE(mgmt::ChallengeQuote(bytes, vendor_.public_key(),
                                   crypto::SmallTestGroup(), nonce, expected,
                                   "fuzz-nf")
                  .ok());
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    auto mutant = bytes;
    mutant[pos] ^= 0xff;
    const auto challenged =
        mgmt::ChallengeQuote(mutant, vendor_.public_key(),
                             crypto::SmallTestGroup(), nonce, expected,
                             "fuzz-nf");
    ASSERT_FALSE(challenged.ok()) << "byte " << pos;
    EXPECT_EQ(challenged.status().code(), ErrorCode::kPermissionDenied)
        << "byte " << pos;
  }
}

// ---- Function-image config mutation fuzz ------------------------------------
//
// The launch measurement covers FunctionImage::SerializeConfig(), so any
// tampering with a tenant's configuration — one more core, more memory, a
// rewritten switch rule — must change both the canonical
// config bytes and the expected measurement. Otherwise a hostile NIC OS
// could substitute configuration without attestation noticing.

constexpr uint64_t kFuzzPageBytes = 4096;

mgmt::FunctionImage RandomImage(Rng& rng) {
  mgmt::FunctionImage image;
  const size_t name_len = 1 + rng.NextBounded(12);
  for (size_t i = 0; i < name_len; ++i) {
    image.name.push_back(static_cast<char>('a' + rng.NextBounded(26)));
  }
  image.code_and_data.resize(1 + rng.NextBounded(4096));
  for (auto& byte : image.code_and_data) {
    byte = static_cast<uint8_t>(rng.NextBounded(256));
  }
  image.cores = 1 + static_cast<uint32_t>(rng.NextBounded(4));
  image.memory_bytes = (1 + rng.NextBounded(64)) * kFuzzPageBytes;
  for (auto& clusters : image.accel_clusters) {
    clusters = static_cast<uint32_t>(rng.NextBounded(3));
  }
  const size_t num_rules = rng.NextBounded(4);
  for (size_t i = 0; i < num_rules; ++i) {
    net::SwitchRule rule;
    if (rng.NextBounded(2) == 0) {
      rule.dst_port = static_cast<uint16_t>(rng.NextBounded(65536));
    }
    if (rng.NextBounded(2) == 0) {
      rule.protocol = static_cast<uint8_t>(rng.NextBounded(2) == 0 ? 6 : 17);
    }
    if (rng.NextBounded(2) == 0) {
      net::SwitchRule::IpPrefix prefix;
      prefix.addr = rng.NextU32();
      prefix.prefix_len = static_cast<uint8_t>(8 + rng.NextBounded(25));
      rule.dst_ip = prefix;
    }
    image.switch_rules.push_back(rule);
  }
  return image;
}

// Applies one randomly chosen single-field tamper. Every mutator is
// guaranteed to change the logical configuration.
void MutateImage(Rng& rng, mgmt::FunctionImage& image) {
  for (;;) {
    switch (rng.NextBounded(6)) {
      case 0:
        image.cores += 1;
        return;
      case 1:
        image.memory_bytes += kFuzzPageBytes;
        return;
      case 2:
        image.accel_clusters[rng.NextBounded(image.accel_clusters.size())] +=
            1;
        return;
      case 3: {  // flip one bit of one name character, staying printable
        const size_t pos = rng.NextBounded(image.name.size());
        image.name[pos] =
            static_cast<char>('a' + (image.name[pos] - 'a' + 1) % 26);
        return;
      }
      case 4: {  // inject or rewrite a switch rule
        net::SwitchRule rule;
        rule.dst_port = static_cast<uint16_t>(rng.NextBounded(65536));
        if (image.switch_rules.empty() || rng.NextBounded(2) == 0) {
          image.switch_rules.push_back(rule);
        } else {
          image.switch_rules[rng.NextBounded(image.switch_rules.size())] =
              rule;
        }
        return;
      }
      case 5: {  // flip one bit in the code/data payload
        const size_t pos = rng.NextBounded(image.code_and_data.size());
        image.code_and_data[pos] ^=
            static_cast<uint8_t>(1u << rng.NextBounded(8));
        return;
      }
    }
  }
}

TEST(ConfigFuzzTest, SerializationIsDeterministicPerImage) {
  Rng rng(101);
  for (int iter = 0; iter < 100; ++iter) {
    const mgmt::FunctionImage image = RandomImage(rng);
    EXPECT_EQ(image.SerializeConfig(), image.SerializeConfig());
    EXPECT_EQ(mgmt::ExpectedMeasurement(image, kFuzzPageBytes),
              mgmt::ExpectedMeasurement(image, kFuzzPageBytes));
  }
}

TEST(ConfigFuzzTest, AnyMutationChangesConfigBytesAndMeasurement) {
  Rng rng(103);
  for (int iter = 0; iter < 300; ++iter) {
    const mgmt::FunctionImage original = RandomImage(rng);
    const std::vector<uint8_t> config = original.SerializeConfig();
    const crypto::Sha256Digest measurement =
        mgmt::ExpectedMeasurement(original, kFuzzPageBytes);

    mgmt::FunctionImage tampered = original;
    MutateImage(rng, tampered);

    // A code/data bit-flip leaves the *config* untouched by design — it is
    // covered by the measurement directly, not via SerializeConfig.
    const bool code_only =
        tampered.code_and_data != original.code_and_data;
    if (!code_only) {
      EXPECT_NE(tampered.SerializeConfig(), config) << iter;
    }
    EXPECT_NE(mgmt::ExpectedMeasurement(tampered, kFuzzPageBytes),
              measurement)
        << iter;
  }
}

TEST(ConfigFuzzTest, MeasurementMismatchIsWhatAttestationCatches) {
  // End to end: launch the original image, then recompute the expected
  // measurement for a tampered config — the device's measurement matches
  // the former, never the latter.
  Rng rng(107);
  crypto::VendorAuthority vendor(512, rng);
  core::SnicConfig config;
  config.num_cores = 8;
  config.dram_bytes = 64ull << 20;
  config.rsa_modulus_bits = 512;
  core::SnicDevice device(config, vendor);
  mgmt::NicOs nic_os(&device);

  mgmt::FunctionImage image = RandomImage(rng);
  image.cores = 1;
  image.memory_bytes = 4ull << 20;
  image.accel_clusters = {0, 0, 0};
  const auto id = nic_os.NfCreate(image);
  ASSERT_TRUE(id.ok());
  const auto measured = device.MeasurementOf(id.value());
  ASSERT_TRUE(measured.ok());
  EXPECT_EQ(measured.value(),
            mgmt::ExpectedMeasurement(image, device.config().page_bytes));

  for (int iter = 0; iter < 50; ++iter) {
    mgmt::FunctionImage tampered = image;
    MutateImage(rng, tampered);
    EXPECT_NE(measured.value(),
              mgmt::ExpectedMeasurement(tampered, device.config().page_bytes))
        << iter;
  }
}

// ---------------------------------------------------------------------------
// SNTC trace codec (sim::EncodedTrace / sim::TraceDecoder). The decoder
// consumes replay traces that may come from disk, so it must decode-or-
// reject every byte string deterministically and never crash; the encoder's
// output must round-trip element for element.

using sim::AccessType;
using sim::EncodedTrace;
using sim::InstructionTrace;
using sim::TraceDecoder;
using sim::TraceEvent;

// Drains an arbitrary byte string through the block decoder. `block` sizes
// below a run length force the run carry-over path across Fill calls.
struct DecodeOutcome {
  bool ok = false;
  std::string error;
  std::vector<TraceEvent> events;

  bool operator==(const DecodeOutcome& o) const {
    if (ok != o.ok || error != o.error || events.size() != o.events.size()) {
      return false;
    }
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].addr != o.events[i].addr ||
          events[i].type != o.events[i].type ||
          events[i].compute_instructions !=
              o.events[i].compute_instructions) {
        return false;
      }
    }
    return true;
  }
};

DecodeOutcome DecodeBytes(const std::vector<uint8_t>& bytes, size_t block) {
  DecodeOutcome out;
  TraceDecoder d(bytes.data(), bytes.size());
  std::vector<TraceEvent> buf(block);
  for (;;) {
    const size_t n = d.Fill(buf.data(), block);
    out.events.insert(out.events.end(), buf.begin(), buf.begin() + n);
    if (n == 0) {
      break;
    }
  }
  out.ok = d.ok() && d.done();
  out.error = d.ok() ? std::string() : d.status().message();
  return out;
}

void AppendVarint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

std::vector<uint8_t> CodecHeader(uint64_t event_count) {
  std::vector<uint8_t> b = {'S', 'N', 'T', 'C', 1, 0, 0, 0};
  for (int i = 0; i < 8; ++i) {
    b.push_back(static_cast<uint8_t>(event_count >> (8 * i)));
  }
  return b;
}

TEST(TraceCodecFuzzTest, RunsStraddlingFillBlocksRoundTrip) {
  // Runs sized around the 512-event Fill block the replay engine uses, plus
  // zero-delta runs (spinning on one address) and singleton events. Every
  // block size must reproduce the recording exactly, including blocks that
  // chop runs mid-way.
  InstructionTrace trace;
  const size_t runs[] = {1, 2, 511, 512, 513, 1025, 3000};
  uint64_t addr = 0x20000;
  for (size_t r = 0; r < std::size(runs); ++r) {
    const uint64_t delta = (r % 3 == 0) ? 0 : 64 * (r % 5);
    for (size_t i = 0; i < runs[r]; ++i) {
      addr = (addr + delta) & ((uint64_t{1} << 44) - 1);
      trace.Record(addr, static_cast<AccessType>(r % 4),
                   static_cast<uint32_t>(r * 7));
    }
  }
  const EncodedTrace encoded = EncodedTrace::Encode(trace);
  for (size_t block : {1u, 7u, 512u, 4096u}) {
    const DecodeOutcome out = DecodeBytes(encoded.bytes(), block);
    ASSERT_TRUE(out.ok) << "block " << block << ": " << out.error;
    ASSERT_EQ(out.events.size(), trace.size()) << "block " << block;
    for (size_t i = 0; i < out.events.size(); ++i) {
      ASSERT_EQ(out.events[i].addr, trace.events()[i].addr) << i;
      ASSERT_EQ(out.events[i].type, trace.events()[i].type) << i;
      ASSERT_EQ(out.events[i].compute_instructions,
                trace.events()[i].compute_instructions)
          << i;
    }
  }
}

TEST(TraceCodecFuzzTest, EveryTruncationIsRejected) {
  Rng rng(0xc0dec);
  InstructionTrace trace;
  for (int i = 0; i < 200; ++i) {
    trace.Record(rng.NextU64() & ((uint64_t{1} << 44) - 1),
                 static_cast<AccessType>(rng.NextBounded(4)),
                 static_cast<uint32_t>(rng.NextBounded(100)));
  }
  const EncodedTrace encoded = EncodedTrace::Encode(trace);
  const std::vector<uint8_t>& bytes = encoded.bytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    const DecodeOutcome out = DecodeBytes(prefix, 512);
    EXPECT_FALSE(out.ok) << "prefix of " << len << " bytes accepted";
  }
  EXPECT_TRUE(DecodeBytes(bytes, 512).ok);
}

TEST(TraceCodecFuzzTest, MutantsDecodeOrRejectDeterministicallyAndNeverCrash) {
  Rng rng(0xf422);
  InstructionTrace trace;
  uint64_t addr = 0;
  for (int i = 0; i < 500; ++i) {
    addr += (rng.NextBounded(2) != 0) ? 64 : rng.NextU64() % (1 << 20);
    trace.Record(addr & ((uint64_t{1} << 44) - 1),
                 static_cast<AccessType>(rng.NextBounded(4)),
                 static_cast<uint32_t>(rng.NextBounded(64)));
  }
  const std::vector<uint8_t> valid = EncodedTrace::Encode(trace).bytes();
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> mutant = valid;
    switch (rng.NextBounded(4)) {
      case 0:  // flip one byte
        mutant[rng.NextBounded(mutant.size())] ^=
            static_cast<uint8_t>(1 + rng.NextBounded(255));
        break;
      case 1:  // delete a span
        if (mutant.size() > 1) {
          const size_t at = rng.NextBounded(mutant.size() - 1);
          const size_t n = 1 + rng.NextBounded(
                                   std::min<size_t>(16, mutant.size() - at));
          mutant.erase(mutant.begin() + at, mutant.begin() + at + n);
        }
        break;
      case 2: {  // insert random bytes
        const size_t at = rng.NextBounded(mutant.size() + 1);
        uint8_t noise[8];
        const size_t n = 1 + rng.NextBounded(8);
        for (size_t i = 0; i < n; ++i) {
          noise[i] = static_cast<uint8_t>(rng.NextBounded(256));
        }
        mutant.insert(mutant.begin() + at, noise, noise + n);
        break;
      }
      default:  // truncate + random tail (worst case for varint endings)
        mutant.resize(rng.NextBounded(mutant.size() + 1));
        for (size_t i = 0; i < 4; ++i) {
          mutant.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
        }
        break;
    }
    // Decode twice, different block sizes: the outcome (accept + events, or
    // reject + reason) must be identical — no hidden state, no UB.
    const DecodeOutcome a = DecodeBytes(mutant, 512);
    const DecodeOutcome b = DecodeBytes(mutant, 3);
    EXPECT_TRUE(a == b) << "iter " << iter;
    if (a.ok) {
      // Whatever decoded must honour the header's event count.
      TraceDecoder d(mutant.data(), mutant.size());
      EXPECT_EQ(a.events.size(), d.event_count()) << "iter " << iter;
    }
  }
}

TEST(TraceCodecFuzzTest, MalformedConstructsAreRejected) {
  auto reject = [](std::vector<uint8_t> bytes, const char* what) {
    const DecodeOutcome out = DecodeBytes(bytes, 512);
    EXPECT_FALSE(out.ok) << what;
  };

  reject({}, "empty input");
  reject({'S', 'N', 'T'}, "truncated header");
  {
    auto b = CodecHeader(1);
    b[0] = 'X';
    b.push_back(0x00);
    AppendVarint(b, 0);
    reject(b, "bad magic");
  }
  {
    auto b = CodecHeader(1);
    b[4] = 2;
    b.push_back(0x00);
    AppendVarint(b, 0);
    reject(b, "unsupported version");
  }
  {
    auto b = CodecHeader(1);
    b[6] = 0xAA;
    b.push_back(0x00);
    AppendVarint(b, 0);
    reject(b, "nonzero reserved header bytes");
  }
  {
    auto b = CodecHeader(1);
    b.push_back(0x10);  // reserved token bit
    AppendVarint(b, 0);
    reject(b, "reserved token bits");
  }
  for (uint64_t run : {uint64_t{0}, uint64_t{1}}) {
    auto b = CodecHeader(4);
    b.push_back(0x04);  // run flag, type kRead
    AppendVarint(b, run);
    AppendVarint(b, 0);
    reject(b, "run shorter than 2");
  }
  {
    auto b = CodecHeader(2);  // run of 3 > 2 remaining events
    b.push_back(0x04);
    AppendVarint(b, 3);
    AppendVarint(b, 0);
    reject(b, "run exceeds remaining events");
  }
  {
    auto b = CodecHeader(1);
    b.push_back(0x00);
    b.insert(b.end(), 9, 0x80);  // 10-byte varint whose 10th byte...
    b.push_back(0x02);           // ...contributes more than bit 63
    reject(b, "varint overflows 64 bits");
  }
  {
    auto b = CodecHeader(1);
    b.push_back(0x00);
    b.insert(b.end(), 12, 0x80);  // continuation bits forever
    reject(b, "varint longer than 10 bytes");
  }
  {
    auto b = CodecHeader(1);
    b.push_back(0x00);
    AppendVarint(b, 0);
    b.push_back(0x00);  // one byte past the final event
    reject(b, "trailing bytes after final event");
  }

  // The valid boundary cases of the same constructs must still decode.
  {
    auto b = CodecHeader(0);
    const DecodeOutcome out = DecodeBytes(b, 512);
    EXPECT_TRUE(out.ok) << "empty trace: " << out.error;
    EXPECT_TRUE(out.events.empty());
    b.push_back(0x00);
    reject(b, "trailing byte after empty trace");
  }
  {
    auto b = CodecHeader(2);  // minimal legal run: length exactly 2
    b.push_back(0x04);
    AppendVarint(b, 2);
    AppendVarint(b, 2);  // zigzag(+1)
    const DecodeOutcome out = DecodeBytes(b, 512);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.events.size(), 2u);
    EXPECT_EQ(out.events[0].addr, 1u);
    EXPECT_EQ(out.events[1].addr, 2u);
  }
  {
    auto b = CodecHeader(1);  // exactly-64-bit varint: 10th byte == 1
    b.push_back(0x00);
    b.insert(b.end(), 9, 0x80);
    b.push_back(0x01);  // zigzag(1<<63 ... ) decodes to some addr; must parse
    const DecodeOutcome out = DecodeBytes(b, 512);
    EXPECT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.events.size(), 1u);
  }
}

// ---------------------------------------------------------------------------
// vNIC RX descriptors (core::vnic, docs/ROBUSTNESS.md hostile-tenant edge)
// ---------------------------------------------------------------------------

namespace vnic = core::vnic;

vnic::RxDescriptor RandomDescriptor(Rng& rng, uint16_t ring_index) {
  vnic::RxDescriptor d;
  d.ring_index = ring_index;
  const bool jumbo = rng.NextBounded(4) == 0;
  d.flags = jumbo ? (vnic::kFlagValid | vnic::kFlagJumbo) : vnic::kFlagValid;
  const uint16_t cap =
      jumbo ? vnic::kMaxBufferBytes : vnic::kMaxStandardBufferBytes;
  d.buffer_len = static_cast<uint16_t>(
      vnic::kMinBufferBytes +
      rng.NextBounded(cap - vnic::kMinBufferBytes + 1));
  d.buffer_addr =
      vnic::kBufferAlign *
      rng.NextBounded((vnic::kMaxBufferAddr / vnic::kBufferAlign) + 1);
  return d;
}

TEST(DescriptorFuzzTest, RandomDescriptorsRoundTripAtAnyChunking) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<vnic::RxDescriptor> block;
    const size_t count = 1 + rng.NextBounded(8);
    for (size_t i = 0; i < count; ++i) {
      block.push_back(RandomDescriptor(rng, static_cast<uint16_t>(i)));
    }
    const std::vector<uint8_t> raw = vnic::EncodeDescriptors(block);

    // One-shot decode and a random chunking must both yield the originals.
    for (const size_t chunk : {raw.size(), 1 + rng.NextBounded(24)}) {
      vnic::DescriptorStreamDecoder decoder;
      std::vector<vnic::RxDescriptor> decoded;
      for (size_t off = 0; off < raw.size(); off += chunk) {
        const size_t len = std::min(chunk, raw.size() - off);
        ASSERT_TRUE(
            decoder
                .Fill(std::span<const uint8_t>(&raw[off], len), &decoded)
                .ok())
            << iter;
      }
      ASSERT_TRUE(decoder.Finish().ok()) << iter;
      EXPECT_EQ(decoded, block) << iter << " chunk " << chunk;
    }
  }
}

TEST(DescriptorFuzzTest, EverySingleByteMutantDeterministicallyRejects) {
  // The XOR checksum covers bytes [0..14] and lives in byte 15, so *any*
  // single-byte change to a valid descriptor must reject — and reject the
  // same way on a second decode (no hidden state).
  Rng rng(2024);
  for (int iter = 0; iter < 2000; ++iter) {
    const vnic::RxDescriptor d =
        RandomDescriptor(rng, static_cast<uint16_t>(rng.NextBounded(65536)));
    uint8_t bytes[vnic::kDescriptorBytes];
    vnic::EncodeRxDescriptor(d, bytes);
    const size_t index = rng.NextBounded(vnic::kDescriptorBytes);
    const uint8_t mask =
        static_cast<uint8_t>(1 + rng.NextBounded(255));  // non-zero flip
    bytes[index] ^= mask;
    const auto first = vnic::DecodeRxDescriptor(bytes);
    EXPECT_FALSE(first.ok())
        << "iter " << iter << ": flip of byte " << index << " with mask 0x"
        << std::hex << int(mask) << " was accepted";
    const auto second = vnic::DecodeRxDescriptor(bytes);
    EXPECT_EQ(first.ok(), second.ok()) << iter;
    if (!first.ok() && !second.ok()) {
      EXPECT_EQ(first.status().message(), second.status().message()) << iter;
    }
  }
}

TEST(DescriptorFuzzTest, EveryPrefixTruncationIsCaughtAtFinish) {
  Rng rng(2024);
  std::vector<vnic::RxDescriptor> block;
  for (uint16_t i = 0; i < 3; ++i) {
    block.push_back(RandomDescriptor(rng, i));
  }
  const std::vector<uint8_t> raw = vnic::EncodeDescriptors(block);
  for (size_t len = 0; len <= raw.size(); ++len) {
    vnic::DescriptorStreamDecoder decoder;
    std::vector<vnic::RxDescriptor> decoded;
    ASSERT_TRUE(
        decoder.Fill(std::span<const uint8_t>(raw.data(), len), &decoded)
            .ok())
        << len;
    if (len % vnic::kDescriptorBytes == 0) {
      // Whole descriptors only: a legal (shorter) block.
      EXPECT_TRUE(decoder.Finish().ok()) << len;
      EXPECT_EQ(decoded.size(), len / vnic::kDescriptorBytes);
    } else {
      // A dangling partial descriptor must not pass Finish.
      EXPECT_FALSE(decoder.Finish().ok()) << len;
    }
  }
}

TEST(DescriptorFuzzTest, CorruptStreamsFailIdenticallyAtAnyChunking) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<vnic::RxDescriptor> block;
    for (uint16_t i = 0; i < 4; ++i) {
      block.push_back(RandomDescriptor(rng, i));
    }
    std::vector<uint8_t> raw = vnic::EncodeDescriptors(block);
    raw[rng.NextBounded(raw.size())] ^=
        static_cast<uint8_t>(1 + rng.NextBounded(255));

    // Decode the corrupted stream twice with different chunkings: both must
    // keep the same healthy prefix and fail with the same first error.
    const auto run = [&](size_t chunk) {
      vnic::DescriptorStreamDecoder decoder;
      std::vector<vnic::RxDescriptor> decoded;
      Status first_error = OkStatus();
      for (size_t off = 0; off < raw.size(); off += chunk) {
        const size_t len = std::min(chunk, raw.size() - off);
        const Status status =
            decoder.Fill(std::span<const uint8_t>(&raw[off], len), &decoded);
        if (!status.ok() && first_error.ok()) {
          first_error = status;
        }
      }
      if (first_error.ok()) {
        first_error = decoder.Finish();
      }
      return std::make_pair(decoded, first_error);
    };
    const auto [whole, whole_error] = run(raw.size());
    const auto [chunked, chunked_error] = run(1 + rng.NextBounded(16));
    EXPECT_FALSE(whole_error.ok()) << iter;  // a flip always rejects
    EXPECT_EQ(whole, chunked) << iter;
    EXPECT_EQ(whole_error.ok(), chunked_error.ok()) << iter;
    EXPECT_EQ(whole_error.message(), chunked_error.message()) << iter;
  }
}

// --- Scenario-spec decode-or-reject fuzz (docs/ROBUSTNESS.md, "The
// scenario matrix"). The parser's contract mirrors the vNIC descriptor
// codec: a spec either decodes into a fully-validated ScenarioSpec or is
// rejected with a clean error — never a crash, never a silent
// mis-decode.

namespace {

// A rich canonical spec exercising every schema branch: VF-backed
// attacker, overload policy, bus domains, attack mix, every verdict kind.
std::string RichSpecJson() {
  // The compound generated family covers supervisor + faults + overload;
  // splice in the hostile family's VF/attack coverage by picking one of
  // each and fuzzing both.
  const auto specs = scenario::GenerateScenarios(0x5ce9a21ull);
  for (const auto& spec : specs) {
    if (spec.name.rfind("f/fault-during-recovery-overload", 0) == 0) {
      return scenario::SerializeScenarioSpec(spec);
    }
  }
  SNIC_CHECK(false);
  return {};
}

// The rich spec with its overload target chained into the crash-looping
// victim: the overload.downstream key under the same fuzz contract.
std::string ChainSpecJson() {
  for (auto spec : scenario::GenerateScenarios(0x5ce9a21ull)) {
    if (spec.name.rfind("f/fault-during-recovery-overload", 0) == 0) {
      spec.overload.downstream = "victim-a";
      return scenario::SerializeScenarioSpec(spec);
    }
  }
  SNIC_CHECK(false);
  return {};
}

std::string AttackSpecJson() {
  const auto specs = scenario::GenerateScenarios(0x5ce9a21ull);
  for (const auto& spec : specs) {
    if (spec.name.rfind("e/churn", 0) == 0) {
      return scenario::SerializeScenarioSpec(spec);
    }
  }
  SNIC_CHECK(false);
  return {};
}

}  // namespace

TEST(ScenarioSpecFuzzTest, CanonicalFormRoundTrips) {
  for (const auto& spec : scenario::GenerateScenarios(0x5ce9a21ull)) {
    const std::string canonical = scenario::SerializeScenarioSpec(spec);
    const auto reparsed = scenario::ParseScenarioSpec(canonical);
    ASSERT_TRUE(reparsed.ok()) << spec.name << ": "
                               << reparsed.status().message();
    EXPECT_EQ(scenario::SerializeScenarioSpec(reparsed.value()), canonical)
        << spec.name;
  }
  const std::string chained = ChainSpecJson();
  const auto reparsed = scenario::ParseScenarioSpec(chained);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(reparsed.value().overload.downstream, "victim-a");
  EXPECT_EQ(scenario::SerializeScenarioSpec(reparsed.value()), chained);
}

TEST(ScenarioSpecFuzzTest, EveryTruncationIsRejected) {
  for (const std::string& valid :
       {RichSpecJson(), AttackSpecJson(), ChainSpecJson()}) {
    ASSERT_TRUE(scenario::ParseScenarioSpec(valid).ok());
    for (size_t len = 0; len < valid.size(); ++len) {
      const auto out =
          scenario::ParseScenarioSpec(std::string_view(valid).substr(0, len));
      EXPECT_FALSE(out.ok()) << "prefix of " << len << " bytes accepted";
    }
  }
}

TEST(ScenarioSpecFuzzTest, SingleByteMutantsDecodeOrRejectAndNeverCrash) {
  Rng rng(0x5bec);
  const std::vector<std::string> bases = {RichSpecJson(), AttackSpecJson(),
                                          ChainSpecJson()};
  for (int iter = 0; iter < 3000; ++iter) {
    std::string mutant = bases[iter % bases.size()];
    const size_t at = rng.NextBounded(mutant.size());
    mutant[at] = static_cast<char>(mutant[at] ^
                                   static_cast<char>(1 + rng.NextBounded(255)));
    // Parse twice: the outcome — accepted spec or precise rejection — must
    // be identical (no hidden state, no UB).
    const auto a = scenario::ParseScenarioSpec(mutant);
    const auto b = scenario::ParseScenarioSpec(mutant);
    ASSERT_EQ(a.ok(), b.ok()) << "iter " << iter;
    if (a.ok()) {
      // A mutant that still decodes (e.g. a flipped character inside a
      // name) must hold the same canonical-form contract as any spec.
      const std::string canonical =
          scenario::SerializeScenarioSpec(a.value());
      const auto again = scenario::ParseScenarioSpec(canonical);
      ASSERT_TRUE(again.ok()) << "iter " << iter;
      EXPECT_EQ(scenario::SerializeScenarioSpec(again.value()), canonical)
          << "iter " << iter;
    } else {
      EXPECT_EQ(a.status().message(), b.status().message()) << "iter " << iter;
      EXPECT_FALSE(a.status().message().empty()) << "iter " << iter;
    }
  }
}

// Every decode outcome over the inputs above, folded into one pinned
// digest: the canonical text of each accepted input, the exact message of
// each rejected one. Inputs are the 3,000 single-byte mutants of the
// previous test (same draws), every truncation of the three bases, and
// every row of ScenarioSpecTest.RejectsPreciselyNotLeniently. A codec
// rewrite must accept, canonicalize and reject exactly as before.
TEST(ScenarioSpecFuzzTest, DecodeOutcomeKnownAnswers) {
  obs::Fnv fnv;
  const auto mix = [&fnv](std::string_view input) {
    const auto out = scenario::ParseScenarioSpec(input);
    fnv.Mix(out.ok() ? "ok " + scenario::SerializeScenarioSpec(out.value())
                     : "error " + out.status().message());
    fnv.Mix("\n");
  };
  Rng rng(0x5bec);
  const std::vector<std::string> bases = {RichSpecJson(), AttackSpecJson(),
                                          ChainSpecJson()};
  for (int iter = 0; iter < 3000; ++iter) {
    std::string mutant = bases[iter % bases.size()];
    const size_t at = rng.NextBounded(mutant.size());
    mutant[at] = static_cast<char>(mutant[at] ^
                                   static_cast<char>(1 + rng.NextBounded(255)));
    mix(mutant);
  }
  for (const std::string& base : bases) {
    for (size_t len = 0; len < base.size(); ++len) {
      mix(std::string_view(base).substr(0, len));
    }
  }
  for (const scenario::SpecRejectCase& c : scenario::kSpecRejectCases) {
    mix(c.json);
  }
  EXPECT_EQ(fnv.h, 0xacdad275ee43ff53ull);
}

}  // namespace
}  // namespace snic
