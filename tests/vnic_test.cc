// Tests for the vNIC device edge (src/core/vnic/): descriptor wire-format
// strictness, per-VF ring / completion-queue / doorbell mechanics, PF/VF
// quotas and abuse latching, reset / rebind / quarantine lifecycles, and
// the SnicDevice ingress routing through an attached front-end
// (docs/ROBUSTNESS.md "Hostile-tenant device edge").

#include <gtest/gtest.h>

#include <vector>

#include "src/core/snic_device.h"
#include "src/core/vnic/descriptor.h"
#include "src/core/vnic/pf_vf.h"
#include "src/core/vnic/ring.h"
#include "src/core/vpp.h"
#include "src/net/parser.h"

namespace snic::core::vnic {
namespace {

RxDescriptor MakeDescriptor(uint16_t ring_index, uint16_t buffer_len = 2048,
                            uint16_t flags = kFlagValid) {
  RxDescriptor d;
  d.buffer_addr = kBufferAlign * (ring_index + 1);
  d.buffer_len = buffer_len;
  d.ring_index = ring_index;
  d.flags = flags;
  return d;
}

std::vector<uint8_t> EncodeBlock(uint16_t first_index, size_t count,
                                 uint16_t buffer_len = 2048) {
  std::vector<RxDescriptor> block;
  for (size_t i = 0; i < count; ++i) {
    block.push_back(
        MakeDescriptor(static_cast<uint16_t>(first_index + i), buffer_len));
  }
  return EncodeDescriptors(block);
}

// ---------------------------------------------------------------------------
// Descriptor wire format
// ---------------------------------------------------------------------------

TEST(DescriptorTest, RoundTripsStandardAndJumbo) {
  const RxDescriptor standard = MakeDescriptor(7, 1500);
  uint8_t bytes[kDescriptorBytes];
  EncodeRxDescriptor(standard, bytes);
  const auto decoded = DecodeRxDescriptor(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value(), standard);

  const RxDescriptor jumbo = MakeDescriptor(8, 9000, kFlagValid | kFlagJumbo);
  EncodeRxDescriptor(jumbo, bytes);
  const auto decoded_jumbo = DecodeRxDescriptor(bytes);
  ASSERT_TRUE(decoded_jumbo.ok());
  EXPECT_EQ(decoded_jumbo.value(), jumbo);
}

TEST(DescriptorTest, DecodeRejectsEveryFieldViolation) {
  uint8_t bytes[kDescriptorBytes];
  const auto rejects = [&](const char* label) {
    const auto decoded = DecodeRxDescriptor(bytes);
    EXPECT_FALSE(decoded.ok()) << label;
  };

  // Byte-level violations start from a valid image; the checksum byte is
  // recomputed so the targeted field — not the checksum — rejects.
  const auto reencode_checksum = [&] {
    uint8_t checksum = 0;
    for (size_t i = 0; i + 1 < kDescriptorBytes; ++i) {
      checksum = static_cast<uint8_t>(checksum ^ bytes[i]);
    }
    bytes[kDescriptorBytes - 1] = checksum;
  };

  EncodeRxDescriptor(MakeDescriptor(0), bytes);
  bytes[0] = 0x00;  // magic
  reencode_checksum();
  rejects("magic");

  EncodeRxDescriptor(MakeDescriptor(0), bytes);
  bytes[1] = kDescriptorVersion + 1;
  reencode_checksum();
  rejects("version");

  EncodeRxDescriptor(MakeDescriptor(0), bytes);
  bytes[2] = 0x00;  // clears kFlagValid
  bytes[3] = 0x00;
  reencode_checksum();
  rejects("missing valid flag");

  EncodeRxDescriptor(MakeDescriptor(0), bytes);
  bytes[3] = 0x80;  // unknown flag bit 15
  reencode_checksum();
  rejects("unknown flag");

  EncodeRxDescriptor(MakeDescriptor(0), bytes);
  bytes[4] = static_cast<uint8_t>(kMinBufferBytes - 1);
  bytes[5] = 0;
  reencode_checksum();
  rejects("buffer_len below minimum");

  EncodeRxDescriptor(MakeDescriptor(0), bytes);
  bytes[4] = static_cast<uint8_t>((kMaxStandardBufferBytes + 64) & 0xff);
  bytes[5] = static_cast<uint8_t>((kMaxStandardBufferBytes + 64) >> 8);
  reencode_checksum();
  rejects("buffer_len above standard cap without jumbo flag");

  EncodeRxDescriptor(MakeDescriptor(0, 9000, kFlagValid | kFlagJumbo), bytes);
  bytes[4] = static_cast<uint8_t>((kMaxBufferBytes + 64) & 0xff);
  bytes[5] = static_cast<uint8_t>((kMaxBufferBytes + 64) >> 8);
  reencode_checksum();
  rejects("buffer_len above jumbo cap");

  EncodeRxDescriptor(MakeDescriptor(0), bytes);
  bytes[8] = 1;  // unaligned buffer_addr
  reencode_checksum();
  rejects("unaligned buffer_addr");

  EncodeRxDescriptor(MakeDescriptor(0), bytes);
  bytes[kDescriptorBytes - 1] ^= 0xff;  // checksum itself
  rejects("checksum");

  // Wrong-size input is rejected, not read out of bounds.
  EncodeRxDescriptor(MakeDescriptor(0), bytes);
  EXPECT_FALSE(
      DecodeRxDescriptor(std::span<const uint8_t>(bytes, 15)).ok());
}

TEST(DescriptorTest, StreamDecoderIsChunkSizeInvariant) {
  const std::vector<uint8_t> raw = EncodeBlock(0, 5);
  std::vector<RxDescriptor> one_shot;
  {
    DescriptorStreamDecoder decoder;
    ASSERT_TRUE(decoder.Fill(raw, &one_shot).ok());
    ASSERT_TRUE(decoder.Finish().ok());
  }
  ASSERT_EQ(one_shot.size(), 5u);
  for (size_t chunk : {1u, 3u, 7u, 16u, 23u}) {
    DescriptorStreamDecoder decoder;
    std::vector<RxDescriptor> chunked;
    for (size_t off = 0; off < raw.size(); off += chunk) {
      const size_t len = std::min(chunk, raw.size() - off);
      ASSERT_TRUE(
          decoder.Fill(std::span<const uint8_t>(&raw[off], len), &chunked)
              .ok());
    }
    EXPECT_TRUE(decoder.Finish().ok());
    EXPECT_EQ(chunked, one_shot) << "chunk size " << chunk;
  }
}

TEST(DescriptorTest, StreamDecoderPoisonsAfterRejectAndFlagsPartials) {
  std::vector<uint8_t> raw = EncodeBlock(0, 3);
  raw[kDescriptorBytes + 2] ^= 0x01;  // corrupt descriptor #1's flags
  DescriptorStreamDecoder decoder;
  std::vector<RxDescriptor> out;
  EXPECT_FALSE(decoder.Fill(raw, &out).ok());
  EXPECT_EQ(out.size(), 1u);  // descriptor #0 decoded before the reject
  EXPECT_TRUE(decoder.poisoned());
  // Nothing can be smuggled in after a reject.
  const std::vector<uint8_t> good = EncodeBlock(3, 1);
  EXPECT_FALSE(decoder.Fill(good, &out).ok());
  EXPECT_FALSE(decoder.Finish().ok());

  // A trailing partial descriptor is a malformed block too.
  DescriptorStreamDecoder truncated;
  std::vector<uint8_t> partial = EncodeBlock(0, 1);
  partial.pop_back();
  std::vector<RxDescriptor> none;
  EXPECT_TRUE(truncated.Fill(partial, &none).ok());
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(truncated.Finish().ok());
}

// ---------------------------------------------------------------------------
// Ring / completion queue / doorbell
// ---------------------------------------------------------------------------

TEST(RxDescriptorRingTest, FifoOrderWithStrictIndexSequence) {
  RxDescriptorRing ring(4);
  EXPECT_EQ(ring.ExpectedIndex(), 0);
  ASSERT_TRUE(ring.Post(MakeDescriptor(0), 10).ok());
  ASSERT_TRUE(ring.Post(MakeDescriptor(1), 20).ok());
  EXPECT_EQ(ring.ExpectedIndex(), 2);
  EXPECT_EQ(ring.posted(), 2u);

  const auto first = ring.Consume();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().descriptor.ring_index, 0);
  EXPECT_EQ(first.value().post_cycle, 10u);
  EXPECT_EQ(ring.stats().consumed, 1u);
  EXPECT_EQ(ring.Consume().value().descriptor.ring_index, 1);
  EXPECT_EQ(ring.Consume().status().code(), ErrorCode::kNotFound);
}

TEST(RxDescriptorRingTest, RejectsStaleIndexAndFull) {
  RxDescriptorRing ring(2);
  ASSERT_TRUE(ring.Post(MakeDescriptor(0), 0).ok());
  // Replaying slot 0 is a stale index, not the expected tail.
  EXPECT_EQ(ring.Post(MakeDescriptor(0), 0).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ring.stats().rejected_stale, 1u);
  ASSERT_TRUE(ring.Post(MakeDescriptor(1), 0).ok());
  // Full ring: even the expected index bounces with the backpressure code.
  EXPECT_EQ(ring.Post(MakeDescriptor(0), 0).code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(ring.stats().rejected_full, 1u);
  EXPECT_EQ(ring.stats().peak_posted, 2u);
}

TEST(RxDescriptorRingTest, ResetRestartsIndexAndBumpsEpoch) {
  RxDescriptorRing ring(4);
  ASSERT_TRUE(ring.Post(MakeDescriptor(0), 0).ok());
  ASSERT_TRUE(ring.Post(MakeDescriptor(1), 0).ok());
  const uint64_t epoch = ring.epoch();
  ring.Reset();
  EXPECT_TRUE(ring.Empty());
  EXPECT_EQ(ring.epoch(), epoch + 1);
  // The index sequence restarts at 0; the pre-reset tail is now stale.
  EXPECT_EQ(ring.ExpectedIndex(), 0);
  EXPECT_FALSE(ring.Post(MakeDescriptor(2), 0).ok());
  EXPECT_TRUE(ring.Post(MakeDescriptor(0), 0).ok());
}

TEST(CompletionQueueTest, BoundedPushHarvest) {
  CompletionQueue cq(2);
  CompletionQueue::Completion completion;
  completion.ring_index = 3;
  completion.bytes = 100;
  ASSERT_TRUE(cq.Push(completion).ok());
  completion.ring_index = 4;
  ASSERT_TRUE(cq.Push(completion).ok());
  EXPECT_TRUE(cq.Full());
  EXPECT_EQ(cq.Push(completion).code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(cq.stats().rejected_full, 1u);
  EXPECT_EQ(cq.Harvest().value().ring_index, 3);
  EXPECT_EQ(cq.Harvest().value().ring_index, 4);
  EXPECT_EQ(cq.Harvest().status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(cq.stats().harvested, 2u);
  EXPECT_EQ(cq.stats().peak_pending, 2u);
}

TEST(DoorbellTest, TokenBucketBoundsRefillsAndResets) {
  DoorbellPolicy policy;
  policy.burst = 2;
  policy.rings_per_refill = 1;
  policy.refill_cycles = 100;
  Doorbell doorbell(policy);
  EXPECT_TRUE(doorbell.Ring());
  EXPECT_TRUE(doorbell.Ring());
  EXPECT_FALSE(doorbell.Ring());  // bucket exhausted
  EXPECT_EQ(doorbell.stats().rings, 2u);
  EXPECT_EQ(doorbell.stats().rejected, 1u);

  doorbell.AdvanceTo(100);  // one refill period: one token
  EXPECT_TRUE(doorbell.Ring());
  EXPECT_FALSE(doorbell.Ring());

  doorbell.AdvanceTo(200);
  doorbell.Drain();  // the flood payload burns the refilled token
  EXPECT_FALSE(doorbell.Ring());

  doorbell.Reset();  // VF reset refills to burst
  EXPECT_TRUE(doorbell.Ring());
  EXPECT_TRUE(doorbell.Ring());
  EXPECT_FALSE(doorbell.Ring());
}

// ---------------------------------------------------------------------------
// PF/VF manager
// ---------------------------------------------------------------------------

class PfVfTest : public ::testing::Test {
 protected:
  PfVfTest() : vpp_(kNfId, VppConfig()) {}

  static constexpr uint64_t kNfId = 42;

  VfQuota SmallQuota() {
    VfQuota quota;
    quota.ring_slots = 8;
    quota.cq_slots = 8;
    quota.posted_bytes_limit = 64 * 1024;
    return quota;
  }

  uint32_t MustCreate(const VfQuota& quota) {
    const auto vf = manager_.CreateVf(kNfId, &vpp_, quota);
    SNIC_CHECK(vf.ok());
    return vf.value();
  }

  net::Packet Frame(size_t bytes = 100) {
    return net::PacketBuilder().SetFrameLen(bytes).Build();
  }

  VirtualPacketPipeline vpp_;
  PfVfManager manager_;
};

TEST_F(PfVfTest, CreateIsOnePerNfAndLookupsResolve) {
  const uint32_t vf = MustCreate(SmallQuota());
  EXPECT_EQ(manager_.vf_count(), 1u);
  EXPECT_EQ(manager_.NfOf(vf), kNfId);
  EXPECT_EQ(manager_.VfForNf(kNfId).value(), vf);
  const auto second = manager_.CreateVf(kNfId, &vpp_, SmallQuota());
  EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyOwned);
  EXPECT_EQ(manager_.VfForNf(7).status().code(), ErrorCode::kNotFound);
}

TEST_F(PfVfTest, DeliveryFlowsRingToVppToCompletion) {
  const uint32_t vf = MustCreate(SmallQuota());
  ASSERT_TRUE(manager_.PostDescriptors(vf, EncodeBlock(0, 2)).ok());
  EXPECT_TRUE(manager_.RingDoorbell(vf));
  EXPECT_EQ(manager_.RingOccupancy(vf), 2u);

  manager_.AdvanceClockTo(50);
  ASSERT_TRUE(manager_.DeliverToVf(vf, Frame(100)).ok());
  EXPECT_EQ(manager_.RingOccupancy(vf), 1u);
  EXPECT_EQ(manager_.CqPending(vf), 1u);
  EXPECT_EQ(vpp_.RxQueuedFrames(), 1u);

  const auto completion = manager_.Harvest(vf);
  ASSERT_TRUE(completion.ok());
  EXPECT_EQ(completion.value().ring_index, 0);
  EXPECT_EQ(completion.value().bytes, 100);
  EXPECT_EQ(completion.value().cycle, 50u);
  EXPECT_EQ(completion.value().wait_cycles, 50u);  // posted at cycle 0
  EXPECT_EQ(manager_.Harvest(vf).status().code(), ErrorCode::kNotFound);

  const VfStats& stats = manager_.StatsOf(vf);
  EXPECT_EQ(stats.posts_accepted, 2u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.harvested, 1u);
  EXPECT_EQ(stats.max_delivery_wait_cycles, 50u);
}

TEST_F(PfVfTest, NoDescriptorAndOversizeDropsKeepState) {
  const uint32_t vf = MustCreate(SmallQuota());
  // Empty ring: the frame drops at the edge.
  EXPECT_EQ(manager_.DeliverToVf(vf, Frame(100)).code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(manager_.StatsOf(vf).dropped_no_descriptor, 1u);

  // A frame larger than the posted buffer drops but keeps the descriptor.
  ASSERT_TRUE(manager_.PostDescriptors(vf, EncodeBlock(0, 1, 64)).ok());
  EXPECT_EQ(manager_.DeliverToVf(vf, Frame(100)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(manager_.StatsOf(vf).dropped_oversize, 1u);
  EXPECT_EQ(manager_.RingOccupancy(vf), 1u);
  // The retained descriptor still serves the next fitting frame.
  ASSERT_TRUE(manager_.DeliverToVf(vf, Frame(64)).ok());
}

TEST_F(PfVfTest, SquattingTenantFillsCqAndStrikes) {
  VfQuota quota = SmallQuota();
  quota.cq_slots = 1;
  const uint32_t vf = MustCreate(quota);
  ASSERT_TRUE(manager_.PostDescriptors(vf, EncodeBlock(0, 2)).ok());
  ASSERT_TRUE(manager_.DeliverToVf(vf, Frame(100)).ok());
  // The tenant never harvests; the next delivery hits a full CQ.
  EXPECT_EQ(manager_.DeliverToVf(vf, Frame(100)).code(),
            ErrorCode::kResourceExhausted);
  const VfStats& stats = manager_.StatsOf(vf);
  EXPECT_EQ(stats.dropped_cq_full, 1u);
  EXPECT_EQ(stats.strikes[static_cast<int>(VfAbuse::kCqSquat)], 1u);
  // The descriptor survives for delivery after the tenant resumes.
  EXPECT_EQ(manager_.RingOccupancy(vf), 1u);
  ASSERT_TRUE(manager_.Harvest(vf).ok());
  ASSERT_TRUE(manager_.DeliverToVf(vf, Frame(100)).ok());
}

TEST_F(PfVfTest, PostedByteQuotaRejectsAndStrikesChurn) {
  VfQuota quota = SmallQuota();
  quota.posted_bytes_limit = 2 * 2048;
  const uint32_t vf = MustCreate(quota);
  const auto status = manager_.PostDescriptors(vf, EncodeBlock(0, 3));
  EXPECT_EQ(status.code(), ErrorCode::kResourceExhausted);
  const VfStats& stats = manager_.StatsOf(vf);
  EXPECT_EQ(stats.posts_accepted, 2u);  // the block rejects at the third
  EXPECT_EQ(stats.post_rejected_quota, 1u);
  EXPECT_EQ(stats.strikes[static_cast<int>(VfAbuse::kQuotaChurn)], 1u);
  // Delivery releases quota: after draining one buffer, one more post fits.
  ASSERT_TRUE(manager_.DeliverToVf(vf, Frame(100)).ok());
  EXPECT_TRUE(manager_.PostDescriptors(vf, EncodeBlock(2, 1)).ok());
}

TEST_F(PfVfTest, MalformedBlockStrikesBadDescriptor) {
  const uint32_t vf = MustCreate(SmallQuota());
  std::vector<uint8_t> raw = EncodeBlock(0, 2);
  raw[5] ^= 0x20;  // corrupt descriptor #0's buffer_len high byte
  EXPECT_FALSE(manager_.PostDescriptors(vf, raw).ok());
  EXPECT_EQ(manager_.StatsOf(vf).post_rejected_decode, 1u);
  EXPECT_EQ(manager_.StatsOf(vf)
                .strikes[static_cast<int>(VfAbuse::kBadDescriptor)],
            1u);
  EXPECT_EQ(manager_.RingOccupancy(vf), 0u);  // strict: whole block rejected
}

TEST_F(PfVfTest, AbuseLatchesOnceAndResetUnlatches) {
  VfQuota quota = SmallQuota();
  quota.doorbell.burst = 1;
  quota.doorbell.rings_per_refill = 1;
  quota.doorbell.refill_cycles = 100;
  quota.abuse_threshold = 2;
  const uint32_t vf = MustCreate(quota);
  std::vector<std::pair<uint32_t, VfAbuse>> reports;
  manager_.SetAbuseCallback([&](uint32_t id, VfAbuse kind) {
    reports.emplace_back(id, kind);
  });

  EXPECT_TRUE(manager_.RingDoorbell(vf));    // token spent
  EXPECT_FALSE(manager_.RingDoorbell(vf));   // strike 1
  EXPECT_TRUE(reports.empty());
  EXPECT_FALSE(manager_.RingDoorbell(vf));   // strike 2: latch + callback
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].first, vf);
  EXPECT_EQ(reports[0].second, VfAbuse::kDoorbellFlood);
  EXPECT_FALSE(manager_.RingDoorbell(vf));   // strike 3: latched, no re-fire
  EXPECT_EQ(reports.size(), 1u);
  EXPECT_EQ(manager_.StatsOf(vf).abuse_flags, 1u);

  // The Supervisor's restart path (a rebind, here onto the same NF)
  // unlatches and refills the doorbell.
  ASSERT_TRUE(manager_.RebindVf(vf, kNfId, &vpp_).ok());
  EXPECT_EQ(manager_.StatsOf(vf)
                .strikes[static_cast<int>(VfAbuse::kDoorbellFlood)],
            0u);
  EXPECT_EQ(manager_.StatsOf(vf).resets, 1u);
  EXPECT_TRUE(manager_.RingDoorbell(vf));
  EXPECT_FALSE(manager_.RingDoorbell(vf));  // strikes count afresh
  EXPECT_FALSE(manager_.RingDoorbell(vf));
  EXPECT_EQ(reports.size(), 2u);  // a fresh latch fires the callback again
}

TEST_F(PfVfTest, QuarantineDropsDeliveriesAndDeniesTenantCalls) {
  const uint32_t vf = MustCreate(SmallQuota());
  ASSERT_TRUE(manager_.PostDescriptors(vf, EncodeBlock(0, 1)).ok());
  ASSERT_TRUE(manager_.QuarantineVf(vf).ok());
  EXPECT_TRUE(manager_.IsQuarantined(vf));

  EXPECT_EQ(manager_.DeliverToVf(vf, Frame(100)).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(manager_.StatsOf(vf).dropped_quarantined, 1u);
  EXPECT_EQ(manager_.PostDescriptors(vf, EncodeBlock(1, 1)).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_FALSE(manager_.RingDoorbell(vf));
  EXPECT_EQ(manager_.Harvest(vf).status().code(),
            ErrorCode::kPermissionDenied);
  // A restart's reset does not lift quarantine — only explicit PF action
  // would.
  ASSERT_TRUE(manager_.RebindVf(vf, kNfId, &vpp_).ok());
  EXPECT_TRUE(manager_.IsQuarantined(vf));
}

TEST_F(PfVfTest, RebindPointsVfAtRestartedNfAndResets) {
  const uint32_t vf = MustCreate(SmallQuota());
  ASSERT_TRUE(manager_.PostDescriptors(vf, EncodeBlock(0, 2)).ok());

  VirtualPacketPipeline fresh(kNfId + 1, VppConfig());
  ASSERT_TRUE(manager_.RebindVf(vf, kNfId + 1, &fresh).ok());
  EXPECT_EQ(manager_.NfOf(vf), kNfId + 1);
  EXPECT_EQ(manager_.VfForNf(kNfId + 1).value(), vf);
  EXPECT_EQ(manager_.VfForNf(kNfId).status().code(), ErrorCode::kNotFound);
  // Rebind resets: the ring restarted its index sequence.
  EXPECT_EQ(manager_.RingOccupancy(vf), 0u);
  EXPECT_EQ(manager_.StatsOf(vf).resets, 1u);
  ASSERT_TRUE(manager_.PostDescriptors(vf, EncodeBlock(0, 1)).ok());
  ASSERT_TRUE(manager_.DeliverToVf(vf, Frame(100)).ok());
  EXPECT_EQ(fresh.RxQueuedFrames(), 1u);
  EXPECT_EQ(vpp_.RxQueuedFrames(), 0u);
}

TEST_F(PfVfTest, VppBackpressureRetainsDescriptor) {
  VppConfig config;
  config.overload.rx_queue_capacity_frames = 1;
  VirtualPacketPipeline bounded(kNfId + 9, VppConfig(config));
  const auto vf = manager_.CreateVf(kNfId + 9, &bounded, SmallQuota());
  ASSERT_TRUE(vf.ok());
  ASSERT_TRUE(manager_.PostDescriptors(vf.value(), EncodeBlock(0, 2)).ok());
  ASSERT_TRUE(manager_.DeliverToVf(vf.value(), Frame(100)).ok());
  // The VPP queue is full: delivery fails, the descriptor stays posted, no
  // completion is minted — ring-full is how backpressure reaches the tenant.
  EXPECT_FALSE(manager_.DeliverToVf(vf.value(), Frame(100)).ok());
  EXPECT_EQ(manager_.StatsOf(vf.value()).dropped_vpp, 1u);
  EXPECT_EQ(manager_.RingOccupancy(vf.value()), 1u);
  EXPECT_EQ(manager_.CqPending(vf.value()), 1u);
  // Draining the VPP lets the retained descriptor deliver.
  ASSERT_TRUE(bounded.DequeueRx().ok());
  ASSERT_TRUE(manager_.DeliverToVf(vf.value(), Frame(100)).ok());
  EXPECT_EQ(manager_.RingOccupancy(vf.value()), 0u);
}

// ---------------------------------------------------------------------------
// SnicDevice routing through an attached front-end
// ---------------------------------------------------------------------------

class VnicDeviceTest : public ::testing::Test {
 protected:
  VnicDeviceTest() : vendor_(MakeVendor()), device_(SmallConfig(), vendor_) {
    device_.AttachVnicFrontEnd(&front_end_);
  }

  static crypto::VendorAuthority MakeVendor() {
    Rng rng(1234);
    return crypto::VendorAuthority(512, rng);
  }

  static SnicConfig SmallConfig() {
    SnicConfig config;
    config.mode = SecurityMode::kSnic;
    config.num_cores = 8;
    config.dram_bytes = 64ull << 20;
    config.page_bytes = 2ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  NfLaunchArgs StageFunction(uint8_t fill, uint16_t dst_port) {
    auto pages = device_.memory().AllocatePages(1, kPageNicOs);
    SNIC_CHECK(pages.ok());
    std::vector<uint8_t> image(device_.memory().page_bytes(), fill);
    device_.memory().Write(
        pages.value()[0] * device_.memory().page_bytes(),
        std::span<const uint8_t>(image.data(), image.size()));
    NfLaunchArgs args;
    args.core_mask = 0b10;
    args.image_pages = pages.value();
    args.heap_pages = 2;
    net::SwitchRule rule;
    rule.dst_port = dst_port;
    args.vpp.rules.push_back(rule);
    return args;
  }

  net::Packet MatchedFrame(uint16_t dst_port) {
    net::FiveTuple t;
    t.src_ip = net::Ipv4FromString("1.1.1.1");
    t.dst_ip = net::Ipv4FromString("2.2.2.2");
    t.src_port = 1;
    t.dst_port = dst_port;
    t.protocol = 6;
    return net::PacketBuilder().SetTuple(t).Build();
  }

  crypto::VendorAuthority vendor_;
  SnicDevice device_;
  vnic::PfVfManager front_end_;
};

TEST_F(VnicDeviceTest, IngressRoutesThroughVfWhenOneExists) {
  const auto id = device_.NfLaunch(StageFunction(0x11, 8011));
  ASSERT_TRUE(id.ok());
  const auto vf =
      front_end_.CreateVf(id.value(), device_.Vpp(id.value()), VfQuota());
  ASSERT_TRUE(vf.ok());

  // No posted descriptor: the matched frame drops at the device edge.
  EXPECT_FALSE(device_.DeliverFromWire(MatchedFrame(8011)).ok());
  EXPECT_EQ(front_end_.StatsOf(vf.value()).dropped_no_descriptor, 1u);

  ASSERT_TRUE(
      front_end_.PostDescriptors(vf.value(), EncodeBlock(0, 1)).ok());
  ASSERT_TRUE(device_.DeliverFromWire(MatchedFrame(8011)).ok());
  EXPECT_EQ(front_end_.StatsOf(vf.value()).delivered, 1u);
  EXPECT_EQ(front_end_.CqPending(vf.value()), 1u);
  // The frame is waiting in the NF's pipeline as usual.
  ASSERT_TRUE(device_.NfReceive(id.value()).ok());
}

TEST_F(VnicDeviceTest, NfsWithoutVfsBypassTheFrontEnd) {
  const auto id = device_.NfLaunch(StageFunction(0x12, 8012));
  ASSERT_TRUE(id.ok());
  // No VF created: ingress goes straight to the VPP (pre-vNIC behaviour).
  ASSERT_TRUE(device_.DeliverFromWire(MatchedFrame(8012)).ok());
  ASSERT_TRUE(device_.NfReceive(id.value()).ok());
}

TEST_F(VnicDeviceTest, DeviceClockFansOutToFrontEnd) {
  device_.AdvanceClockTo(12345);
  EXPECT_EQ(front_end_.now(), 12345u);
}

}  // namespace
}  // namespace snic::core::vnic
