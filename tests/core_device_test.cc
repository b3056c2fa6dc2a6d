// Tests for SnicDevice: the trusted-instruction lifecycle (§4.1, §4.6),
// single-owner RAM semantics (§4.2), accelerator binding (§4.3), packet
// steering (§4.4), the commodity-mode contrast, and the launch measurement
// and its modeled charge against a full-page oracle.

#include <gtest/gtest.h>

#include "src/core/snic_device.h"
#include "src/net/parser.h"

namespace snic::core {
namespace {

crypto::VendorAuthority MakeVendor() {
  Rng rng(1234);
  return crypto::VendorAuthority(512, rng);
}

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest() : vendor_(MakeVendor()), device_(SmallConfig(), vendor_) {}

  static SnicConfig SmallConfig() {
    SnicConfig config;
    config.mode = SecurityMode::kSnic;
    config.num_cores = 8;
    config.dram_bytes = 64ull << 20;
    config.page_bytes = 2ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  // Stages a 1-page image owned by the NIC OS and returns launch args.
  NfLaunchArgs StageFunction(uint8_t fill, uint64_t core_mask = 0b10) {
    auto pages = device_.memory().AllocatePages(1, kPageNicOs);
    SNIC_CHECK(pages.ok());
    std::vector<uint8_t> image(device_.memory().page_bytes(), fill);
    device_.memory().Write(pages.value()[0] * device_.memory().page_bytes(),
                           std::span<const uint8_t>(image.data(), image.size()));
    NfLaunchArgs args;
    args.core_mask = core_mask;
    args.image_pages = pages.value();
    args.heap_pages = 2;
    args.config_blob = {1, 2, 3};
    net::SwitchRule rule;
    rule.dst_port = static_cast<uint16_t>(8000 + fill);
    args.vpp.rules.push_back(rule);
    return args;
  }

  crypto::VendorAuthority vendor_;
  SnicDevice device_;
};

TEST_F(DeviceTest, LaunchTeardownLifecycle) {
  const auto id = device_.NfLaunch(StageFunction(0xaa));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(device_.IsLive(id.value()));
  EXPECT_EQ(device_.LiveNfIds().size(), 1u);
  ASSERT_TRUE(device_.NfTeardown(id.value()).ok());
  EXPECT_FALSE(device_.IsLive(id.value()));
  EXPECT_EQ(device_.FreeCores(), 7u);
}

TEST_F(DeviceTest, LaunchRejectsCoreZero) {
  NfLaunchArgs args = StageFunction(1, 0b1);
  const auto id = device_.NfLaunch(args);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(DeviceTest, LaunchRejectsTakenCores) {
  ASSERT_TRUE(device_.NfLaunch(StageFunction(1, 0b10)).ok());
  const auto second = device_.NfLaunch(StageFunction(2, 0b10));
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyOwned);
}

TEST_F(DeviceTest, LaunchRejectsOwnedPages) {
  NfLaunchArgs args1 = StageFunction(1, 0b10);
  ASSERT_TRUE(device_.NfLaunch(args1).ok());
  // Replay the same image pages for a second function.
  NfLaunchArgs args2 = StageFunction(2, 0b100);
  args2.image_pages = args1.image_pages;
  const auto second = device_.NfLaunch(args2);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyOwned);
}

TEST_F(DeviceTest, LaunchRejectsNonexistentCores) {
  NfLaunchArgs args = StageFunction(1, 1ull << 20);  // core 20 of 8
  EXPECT_EQ(device_.NfLaunch(args).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(DeviceTest, NfMemoryIsolatedFromMgmt) {
  const auto id = device_.NfLaunch(StageFunction(0x5a));
  ASSERT_TRUE(id.ok());
  // The function reads its own image through its TLB.
  const auto byte = device_.NfRead(id.value(), 0);
  ASSERT_TRUE(byte.ok());
  EXPECT_EQ(byte.value(), 0x5a);
  // The management core is locked out of every owned page.
  const auto pages = device_.memory().PagesOwnedBy(id.value());
  ASSERT_FALSE(pages.empty());
  for (uint64_t page : pages) {
    const auto denied =
        device_.MgmtReadPhys(page * device_.memory().page_bytes());
    EXPECT_EQ(denied.status().code(), ErrorCode::kPermissionDenied);
    EXPECT_EQ(device_.MgmtWritePhys(page * device_.memory().page_bytes(), 0)
                  .code(),
              ErrorCode::kPermissionDenied);
  }
  // Non-owned pages remain reachable to the NIC OS.
  EXPECT_TRUE(device_.MgmtReadPhys(device_.memory().total_bytes() - 1).ok());
}

TEST_F(DeviceTest, NfCannotReachBeyondItsMapping) {
  const auto id = device_.NfLaunch(StageFunction(1));
  ASSERT_TRUE(id.ok());
  // 1 image page + 2 heap pages mapped: vaddr beyond 3 pages faults.
  const uint64_t limit = 3 * device_.memory().page_bytes();
  EXPECT_TRUE(device_.NfRead(id.value(), limit - 1).ok());
  EXPECT_EQ(device_.NfRead(id.value(), limit).status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(device_.NfWrite(id.value(), limit, 1).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(DeviceTest, HeapPagesZeroFilledAndWritable) {
  const auto id = device_.NfLaunch(StageFunction(0x77));
  ASSERT_TRUE(id.ok());
  const uint64_t heap_vaddr = device_.memory().page_bytes();  // second page
  EXPECT_EQ(device_.NfRead(id.value(), heap_vaddr).value(), 0);
  ASSERT_TRUE(device_.NfWrite(id.value(), heap_vaddr, 0x42).ok());
  EXPECT_EQ(device_.NfRead(id.value(), heap_vaddr).value(), 0x42);
}

TEST_F(DeviceTest, TeardownScrubsPages) {
  const auto id = device_.NfLaunch(StageFunction(0xee));
  ASSERT_TRUE(id.ok());
  const auto pages = device_.memory().PagesOwnedBy(id.value());
  ASSERT_FALSE(pages.empty());
  const uint64_t paddr = pages[0] * device_.memory().page_bytes();
  ASSERT_TRUE(device_.NfTeardown(id.value()).ok());
  // The page is free again and reads zero — no residue for the next owner.
  EXPECT_EQ(device_.memory().OwnerOf(pages[0]), kPageFree);
  EXPECT_EQ(device_.memory().ReadByte(paddr), 0);
  EXPECT_TRUE(device_.MgmtReadPhys(paddr).ok());  // denylist entry removed
}

TEST_F(DeviceTest, MeasurementDiffersByImage) {
  const auto id1 = device_.NfLaunch(StageFunction(0x01, 0b10));
  const auto id2 = device_.NfLaunch(StageFunction(0x02, 0b100));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(device_.MeasurementOf(id1.value()).value(),
            device_.MeasurementOf(id2.value()).value());
}

TEST_F(DeviceTest, MeasurementDiffersByConfig) {
  NfLaunchArgs a = StageFunction(0x03, 0b10);
  NfLaunchArgs b = StageFunction(0x03, 0b100);
  b.config_blob = {9, 9, 9};
  // Same image bytes, different config: measurements must differ (the hash
  // covers switching rules and resource requests, §4.6).
  const auto id1 = device_.NfLaunch(a);
  const auto id2 = device_.NfLaunch(b);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(device_.MeasurementOf(id1.value()).value(),
            device_.MeasurementOf(id2.value()).value());
}

TEST_F(DeviceTest, AcceleratorClustersBoundAndReleased) {
  NfLaunchArgs args = StageFunction(0x04);
  args.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kDpi)] = 3;
  const auto id = device_.NfLaunch(args);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(device_.accel_pool().FreeClusters(accel::AcceleratorType::kDpi),
            13u);
  ASSERT_TRUE(device_.NfTeardown(id.value()).ok());
  EXPECT_EQ(device_.accel_pool().FreeClusters(accel::AcceleratorType::kDpi),
            16u);
}

// nf_launch programs each accelerator cluster's TLB bank with its owner's
// mapping; ThreadAccess is the check every accelerator fetch goes through.
TEST_F(DeviceTest, ClusterTlbConfinesAcceleratorFetchesToOwner) {
  constexpr auto kDpi = accel::AcceleratorType::kDpi;
  auto clusters_of = [&](uint64_t nf) {
    std::vector<uint32_t> out;
    for (uint32_t c = 0; c < device_.accel_pool().NumClusters(kDpi); ++c) {
      if (device_.accel_pool().Owner(kDpi, c) == nf) {
        out.push_back(c);
      }
    }
    return out;
  };
  NfLaunchArgs args = StageFunction(0x06, 0b10);
  args.accel_clusters[static_cast<size_t>(kDpi)] = 2;
  const auto owner = device_.NfLaunch(args);
  ASSERT_TRUE(owner.ok());
  NfLaunchArgs other = StageFunction(0x07, 0b100);
  other.accel_clusters[static_cast<size_t>(kDpi)] = 1;
  const auto cotenant = device_.NfLaunch(other);
  ASSERT_TRUE(cotenant.ok());
  const std::vector<uint32_t> owner_clusters = clusters_of(owner.value());
  const std::vector<uint32_t> cotenant_clusters = clusters_of(cotenant.value());
  ASSERT_EQ(owner_clusters.size(), 2u);
  ASSERT_EQ(cotenant_clusters.size(), 1u);

  // A heap vaddr resolves to the physical bytes the function wrote there.
  const std::vector<uint8_t> payload = {'a', 't', 't', 'a', 'c', 'k'};
  const uint64_t heap_vaddr = device_.memory().page_bytes() + 64;
  ASSERT_TRUE(device_
                  .NfWriteBlock(owner.value(), heap_vaddr,
                                std::span<const uint8_t>(payload.data(),
                                                         payload.size()))
                  .ok());
  for (uint32_t c : owner_clusters) {
    const auto paddr =
        device_.accel_pool().ThreadAccess(kDpi, c, heap_vaddr, false);
    ASSERT_TRUE(paddr.ok());
    std::vector<uint8_t> fetched(payload.size());
    device_.memory().Read(paddr.value(),
                          std::span<uint8_t>(fetched.data(), fetched.size()));
    EXPECT_EQ(fetched, payload);
    // Past the owner's mapping the bank misses: fatal for the owner.
    EXPECT_EQ(device_.accel_pool()
                  .ThreadAccess(kDpi, c, 64ull << 20, false)
                  .status()
                  .code(),
              ErrorCode::kPermissionDenied);
  }

  // The co-tenant's cluster reaches only co-tenant pages, at every vaddr.
  const uint64_t page = device_.memory().page_bytes();
  int mapped = 0;
  for (uint64_t vaddr = 0; vaddr < (64ull << 20); vaddr += page) {
    const auto paddr = device_.accel_pool().ThreadAccess(
        kDpi, cotenant_clusters[0], vaddr, false);
    if (paddr.ok()) {
      ++mapped;
      EXPECT_EQ(device_.memory().OwnerOf(paddr.value() / page),
                cotenant.value());
    }
  }
  EXPECT_EQ(mapped, 3);  // one image page + two heap pages
}

TEST_F(DeviceTest, LaunchFailsAtomicallyOnAccelExhaustion) {
  NfLaunchArgs args = StageFunction(0x05);
  args.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kZip)] = 99;
  const auto id = device_.NfLaunch(args);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), ErrorCode::kResourceExhausted);
  // Nothing leaked: cores free, pages staged back to the NIC OS pool, no
  // clusters held.
  EXPECT_EQ(device_.FreeCores(), 7u);
  EXPECT_EQ(device_.accel_pool().FreeClusters(accel::AcceleratorType::kZip),
            16u);
  EXPECT_TRUE(device_.LiveNfIds().empty());
}

TEST_F(DeviceTest, PacketSteeringToMatchingVpp) {
  NfLaunchArgs args = StageFunction(0x06);  // rule: dst_port 8006
  const auto id = device_.NfLaunch(args);
  ASSERT_TRUE(id.ok());

  net::FiveTuple t;
  t.src_ip = net::Ipv4FromString("1.1.1.1");
  t.dst_ip = net::Ipv4FromString("2.2.2.2");
  t.src_port = 1;
  t.dst_port = 8006;
  t.protocol = 6;
  ASSERT_TRUE(
      device_.DeliverFromWire(net::PacketBuilder().SetTuple(t).Build()).ok());
  const auto received = device_.NfReceive(id.value());
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(net::Parse(received.value().bytes()).value().Tuple(), t);

  // Unmatched traffic is dropped and counted.
  t.dst_port = 9999;
  EXPECT_FALSE(
      device_.DeliverFromWire(net::PacketBuilder().SetTuple(t).Build()).ok());
  EXPECT_EQ(device_.unmatched_rx_drops(), 1u);
}

TEST_F(DeviceTest, TxRoundRobinAcrossVpps) {
  const auto id1 = device_.NfLaunch(StageFunction(0x07, 0b10));
  const auto id2 = device_.NfLaunch(StageFunction(0x08, 0b100));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(device_.NfSend(id1.value(),
                             net::PacketBuilder().SetFrameLen(100).Build())
                  .ok());
  ASSERT_TRUE(device_.NfSend(id2.value(),
                             net::PacketBuilder().SetFrameLen(200).Build())
                  .ok());
  const auto first = device_.TransmitToWire();
  const auto second = device_.TransmitToWire();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value().size(), second.value().size());
  EXPECT_FALSE(device_.TransmitToWire().ok());
}

TEST_F(DeviceTest, CommodityModeAllowsPhysicalAccess) {
  SnicConfig config = SmallConfig();
  config.mode = SecurityMode::kCommodity;
  Rng rng(99);
  crypto::VendorAuthority vendor(512, rng);
  SnicDevice commodity(config, vendor);
  EXPECT_TRUE(commodity.CoreWritePhys(2, 12345, 0xcd).ok());
  EXPECT_EQ(commodity.CoreReadPhys(3, 12345).value(), 0xcd);
  // Trusted instructions require S-NIC mode.
  NfLaunchArgs args;
  args.core_mask = 0b10;
  args.image_pages = {0};
  EXPECT_EQ(commodity.NfLaunch(args).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(DeviceTest, SnicModeDeniesCorePhysicalAccess) {
  EXPECT_EQ(device_.CoreReadPhys(2, 0).status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(device_.CoreWritePhys(2, 0, 1).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(DeviceTest, LaunchLatencyAccounted) {
  const auto id = device_.NfLaunch(StageFunction(0x09));
  ASSERT_TRUE(id.ok());
  const LaunchLatency& launch = device_.last_launch_latency();
  EXPECT_GT(launch.sha_digest_ms, 0.0);
  EXPECT_NEAR(launch.tlb_setup_ms, 0.0196, 1e-6);
  EXPECT_NEAR(launch.denylist_ms, 0.0044, 1e-6);
  ASSERT_TRUE(device_.NfTeardown(id.value()).ok());
  const TeardownLatency& teardown = device_.last_teardown_latency();
  EXPECT_GT(teardown.scrub_ms, 0.0);
  // Scrubbing dominates teardown (99.99% per Appendix C).
  EXPECT_GT(teardown.scrub_ms, teardown.allowlist_ms * 100);
}

TEST_F(DeviceTest, UnknownNfIdRejected) {
  EXPECT_EQ(device_.NfTeardown(999).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(device_.NfRead(999, 0).ok());
  EXPECT_FALSE(device_.MeasurementOf(999).ok());
  EXPECT_FALSE(device_.NfReceive(999).ok());
}

// NfLaunch hashes each image page's written prefix where it lies and the
// zeros past it through Sha256::UpdateZeros. The oracle reads every image
// page in full through PhysicalMemory::Read and hashes it with plain
// Update; the modeled charge must be the full-page one, to the bit.
class LaunchMeasurementOracleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  LaunchMeasurementOracleTest()
      : vendor_(MakeVendor()), device_(Config(), vendor_) {}

  static SnicConfig Config() {
    SnicConfig config;
    config.mode = SecurityMode::kSnic;
    config.num_cores = 8;
    config.dram_bytes = 64ull << 20;
    config.page_bytes = GetParam();
    config.rsa_modulus_bits = 512;
    return config;
  }

  uint64_t page_bytes() const { return device_.memory().page_bytes(); }
  uint64_t Addr(uint64_t page, uint64_t offset) const {
    return page * page_bytes() + offset;
  }

  std::vector<uint64_t> StagePages(uint64_t count) {
    auto pages = device_.memory().AllocatePages(count, kPageNicOs);
    SNIC_CHECK(pages.ok());
    return pages.value();
  }

  void Write(uint64_t paddr, const std::vector<uint8_t>& bytes) {
    device_.memory().Write(paddr, std::span<const uint8_t>(bytes));
  }

  // Launches `image_pages` and holds the measurement and the SHA charge to
  // the full-page oracle.
  void LaunchAndCheck(const std::vector<uint64_t>& image_pages) {
    NfLaunchArgs args;
    args.core_mask = 0b10;
    args.image_pages = image_pages;
    args.heap_pages = 1;
    args.config_blob = {9, 8, 7, 6, 5};

    // The device's first launch: its co-processor has charged nothing yet.
    // The reference repeats NfLaunch's charges in order: the TLB setup,
    // then the window sha_digest_ms spans (the pages, the denylist update
    // and the configuration blob).
    ASSERT_EQ(device_.coproc().elapsed_ms(), 0.0);
    crypto::Sha256 oracle;
    accel::CryptoCoprocessor reference(device_.coproc().rates());
    reference.AccountTlbSetup();
    const double before = reference.elapsed_ms();
    std::vector<uint8_t> page(page_bytes());
    for (uint64_t p : image_pages) {
      device_.memory().Read(p * page_bytes(), std::span<uint8_t>(page));
      reference.DigestUpdate(oracle, page);
    }
    reference.AccountDenylistUpdate();
    reference.DigestUpdate(oracle, args.config_blob);
    const crypto::Sha256Digest expected = oracle.Finalize();

    const auto id = device_.NfLaunch(args);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(crypto::DigestToHex(device_.MeasurementOf(id.value()).value()),
              crypto::DigestToHex(expected));
    EXPECT_EQ(device_.last_launch_latency().sha_digest_ms,
              reference.elapsed_ms() - before);
  }

  crypto::VendorAuthority vendor_;
  SnicDevice device_;
};

TEST_P(LaunchMeasurementOracleTest, WriteAtOffsetZero) {
  const auto pages = StagePages(1);
  std::vector<uint8_t> image(3000);
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  Write(Addr(pages[0], 0), image);
  LaunchAndCheck(pages);
}

TEST_P(LaunchMeasurementOracleTest, WriteOfThePagesLastByte) {
  const auto pages = StagePages(2);
  device_.memory().WriteByte(Addr(pages[0], page_bytes() - 1), 0x5a);
  device_.memory().WriteByte(Addr(pages[1], 0), 0xa5);
  LaunchAndCheck(pages);
}

TEST_P(LaunchMeasurementOracleTest, ZerosWrittenAfterNonZeroBytes) {
  const auto pages = StagePages(1);
  Write(Addr(pages[0], 0), std::vector<uint8_t>(100, 0x3c));
  Write(Addr(pages[0], 100), std::vector<uint8_t>(1000, 0x00));
  ASSERT_EQ(device_.memory().WrittenPrefix(pages[0]).size(), 1100u);
  LaunchAndCheck(pages);
}

TEST_P(LaunchMeasurementOracleTest, ZeroPageThenShorterRewrite) {
  const auto pages = StagePages(1);
  Write(Addr(pages[0], 0), std::vector<uint8_t>(2000, 0x11));
  device_.memory().ZeroPage(pages[0]);
  Write(Addr(pages[0], 0), std::vector<uint8_t>(50, 0x22));
  ASSERT_EQ(device_.memory().WrittenPrefix(pages[0]).size(), 50u);
  LaunchAndCheck(pages);
}

TEST_P(LaunchMeasurementOracleTest, ImagePageNeverWritten) {
  const auto pages = StagePages(3);
  Write(Addr(pages[1], 17), std::vector<uint8_t>(33, 0xee));
  ASSERT_TRUE(device_.memory().WrittenPrefix(pages[0]).empty());
  ASSERT_TRUE(device_.memory().WrittenPrefix(pages[2]).empty());
  LaunchAndCheck(pages);
}

TEST_P(LaunchMeasurementOracleTest, FullyWrittenPages) {
  const auto pages = StagePages(2);
  Write(Addr(pages[0], 0), std::vector<uint8_t>(2 * page_bytes(), 0x6b));
  LaunchAndCheck(pages);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, LaunchMeasurementOracleTest,
                         ::testing::Values(4096ull, 2ull << 20),
                         [](const auto& param_info) {
                           return param_info.param == 4096
                                      ? std::string("4KiB")
                                      : std::string("2MiB");
                         });

}  // namespace
}  // namespace snic::core
