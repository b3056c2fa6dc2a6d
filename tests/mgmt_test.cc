// Tests for the management plane: NIC OS NF_create/NF_destroy, the isolated
// DMA controller, and secure constellations (pairwise attestation +
// sealed channels).

#include <gtest/gtest.h>

#include "src/mgmt/constellation.h"
#include "src/mgmt/dma.h"
#include "src/mgmt/nic_os.h"
#include "src/mgmt/verifier.h"

namespace snic::mgmt {
namespace {

class MgmtTest : public ::testing::Test {
 protected:
  MgmtTest()
      : rng_(31),
        vendor_(512, rng_),
        device_(Config(), vendor_),
        nic_os_(&device_) {}

  static core::SnicConfig Config() {
    core::SnicConfig config;
    config.num_cores = 8;
    config.dram_bytes = 128ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  FunctionImage SimpleImage(const std::string& name, uint32_t cores = 1) {
    FunctionImage image;
    image.name = name;
    image.code_and_data.assign(3000, 0xc0);
    image.cores = cores;
    image.memory_bytes = 8ull << 20;  // 4 pages
    net::SwitchRule rule;
    rule.dst_port = 4242;
    image.switch_rules.push_back(rule);
    return image;
  }

  Rng rng_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  NicOs nic_os_;
};

TEST_F(MgmtTest, NfCreateLaunchesFunction) {
  const auto id = nic_os_.NfCreate(SimpleImage("fw"));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(device_.IsLive(id.value()));
  // The image bytes are visible to the function at vaddr 0.
  EXPECT_EQ(device_.NfRead(id.value(), 0).value(), 0xc0);
  EXPECT_EQ(device_.NfRead(id.value(), 2999).value(), 0xc0);
  // 4 pages total (1 image + 3 heap).
  EXPECT_EQ(device_.memory().PagesOwnedBy(id.value()).size(), 4u);
}

TEST_F(MgmtTest, NfDestroyReleasesEverything) {
  const auto id = nic_os_.NfCreate(SimpleImage("fw"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(nic_os_.NfDestroy(id.value()).ok());
  EXPECT_FALSE(device_.IsLive(id.value()));
  EXPECT_EQ(device_.memory().PagesOwnedBy(id.value()).size(), 0u);
  EXPECT_EQ(device_.FreeCores(), 7u);
}

TEST_F(MgmtTest, HostileOsCannotPeekFunctionMemory) {
  const auto id = nic_os_.NfCreate(SimpleImage("secret"));
  ASSERT_TRUE(id.ok());
  const auto pages = device_.memory().PagesOwnedBy(id.value());
  ASSERT_FALSE(pages.empty());
  const auto peek =
      nic_os_.PeekPhys(pages[0] * device_.memory().page_bytes());
  EXPECT_EQ(peek.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(
      nic_os_.PokePhys(pages[0] * device_.memory().page_bytes(), 0).code(),
      ErrorCode::kPermissionDenied);
}

TEST_F(MgmtTest, CoreExhaustionReported) {
  ASSERT_TRUE(nic_os_.NfCreate(SimpleImage("a", 4)).ok());
  ASSERT_TRUE(nic_os_.NfCreate(SimpleImage("b", 3)).ok());
  const auto third = nic_os_.NfCreate(SimpleImage("c", 1));
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), ErrorCode::kResourceExhausted);
}

TEST_F(MgmtTest, FailedCreateLeaksNothing) {
  FunctionImage image = SimpleImage("big");
  image.accel_clusters[0] = 99;  // impossible DPI request
  const auto id = nic_os_.NfCreate(image);
  EXPECT_FALSE(id.ok());
  // Staged pages were returned to the free pool.
  EXPECT_EQ(device_.memory().PagesOwnedBy(core::kPageNicOs).size(), 0u);
  EXPECT_EQ(device_.FreeCores(), 7u);
}

TEST_F(MgmtTest, ConfigSerializationCoversRules) {
  FunctionImage a = SimpleImage("x");
  FunctionImage b = SimpleImage("x");
  net::SwitchRule extra;
  extra.dst_port = 9;
  b.switch_rules.push_back(extra);
  EXPECT_NE(a.SerializeConfig(), b.SerializeConfig());
}

TEST_F(MgmtTest, DmaRespectsWindows) {
  const auto id = nic_os_.NfCreate(SimpleImage("dma"));
  ASSERT_TRUE(id.ok());
  HostMemory host(1 << 20);
  DmaController dma(&device_, &host);

  DmaBankConfig bank;
  bank.nf_id = id.value();
  bank.host_window_base = 0x1000;
  bank.host_window_bytes = 0x1000;
  const uint64_t page = device_.memory().page_bytes();
  bank.nic_window_vbase = page;  // the function's first heap page
  bank.nic_window_bytes = page;
  ASSERT_TRUE(dma.ConfigureBank(1, bank).ok());

  // In-window transfer works both ways.
  std::vector<uint8_t> payload = {9, 8, 7, 6};
  ASSERT_TRUE(host.Write(0x1000, std::span<const uint8_t>(payload.data(),
                                                          payload.size()))
                  .ok());
  ASSERT_TRUE(dma.HostToNic(1, 0x1000, page, 4).ok());
  EXPECT_EQ(device_.NfRead(id.value(), page).value(), 9);
  EXPECT_EQ(device_.NfRead(id.value(), page + 3).value(), 6);

  ASSERT_TRUE(device_.NfWrite(id.value(), page + 10, 0x5e).ok());
  ASSERT_TRUE(dma.NicToHost(1, page + 10, 0x1800, 1).ok());
  uint8_t out = 0;
  ASSERT_TRUE(host.Read(0x1800, std::span<uint8_t>(&out, 1)).ok());
  EXPECT_EQ(out, 0x5e);

  // Out-of-window on either side is denied.
  EXPECT_EQ(dma.HostToNic(1, 0x0, page, 4).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(dma.HostToNic(1, 0x1000, 0, 4).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(dma.NicToHost(1, page, 0x100000 - 1, 4).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(MgmtTest, DmaUnconfiguredBankRejected) {
  HostMemory host(4096);
  DmaController dma(&device_, &host);
  EXPECT_FALSE(dma.HostToNic(0, 0, 0, 1).ok());
  DmaBankConfig empty;
  ASSERT_TRUE(dma.ConfigureBank(2, empty).ok());
  EXPECT_EQ(dma.HostToNic(2, 0, 0, 1).code(),
            ErrorCode::kFailedPrecondition);
}

class ConstellationTest : public MgmtTest {
 protected:
  // The party a tenant builds for `nf_id`, expecting the launch measurement
  // of the image it uploaded.
  SnicFunctionParty Party(const std::string& name, uint64_t nf_id,
                          const FunctionImage& uploaded) {
    return SnicFunctionParty(
        name, &device_, nf_id, vendor_.public_key(),
        ExpectedMeasurement(uploaded, device_.config().page_bytes));
  }
};

TEST_F(ConstellationTest, FunctionAndEnclaveEstablishChannel) {
  const auto id = nic_os_.NfCreate(SimpleImage("tls-mbox"));
  ASSERT_TRUE(id.ok());
  SnicFunctionParty function = Party("F", id.value(), SimpleImage("tls-mbox"));

  Rng platform_rng(41);
  crypto::VendorAuthority platform_vendor(512, platform_rng);
  EnclaveParty enclave("P", {1, 2, 3, 4}, platform_vendor, 512, platform_rng);

  Rng session_rng(42);
  PairwiseResult result = EstablishChannel(function, enclave,
                                           crypto::SmallTestGroup(),
                                           session_rng);
  ASSERT_TRUE(result.Ok());

  // Sealed traffic crosses the untrusted bus; the peer opens it.
  const std::string msg = "session key material";
  const auto sealed = result.channel_a->Seal(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(msg.data()),
                               msg.size()),
      /*seq=*/1);
  const auto opened = result.channel_b->Open(
      std::span<const uint8_t>(sealed.data(), sealed.size()), 1);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(std::string(opened.value().begin(), opened.value().end()), msg);
}

TEST_F(ConstellationTest, TamperedCiphertextRejected) {
  const auto id = nic_os_.NfCreate(SimpleImage("f"));
  ASSERT_TRUE(id.ok());
  SnicFunctionParty function = Party("F", id.value(), SimpleImage("f"));
  Rng platform_rng(43);
  crypto::VendorAuthority platform_vendor(512, platform_rng);
  EnclaveParty enclave("P", {7}, platform_vendor, 512, platform_rng);
  Rng session_rng(44);
  PairwiseResult result = EstablishChannel(function, enclave,
                                           crypto::SmallTestGroup(),
                                           session_rng);
  ASSERT_TRUE(result.Ok());
  auto sealed = result.channel_a->Seal(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>("hi"), 2), 5);
  sealed[0] ^= 1;  // operator tampers on the bus
  EXPECT_FALSE(result.channel_b
                   ->Open(std::span<const uint8_t>(sealed.data(),
                                                   sealed.size()),
                          5)
                   .ok());
}

TEST_F(ConstellationTest, ReplayedSequenceRejected) {
  const auto id = nic_os_.NfCreate(SimpleImage("f"));
  ASSERT_TRUE(id.ok());
  SnicFunctionParty function = Party("F", id.value(), SimpleImage("f"));
  Rng platform_rng(45);
  crypto::VendorAuthority platform_vendor(512, platform_rng);
  EnclaveParty enclave("P", {7}, platform_vendor, 512, platform_rng);
  Rng session_rng(46);
  PairwiseResult result = EstablishChannel(function, enclave,
                                           crypto::SmallTestGroup(),
                                           session_rng);
  ASSERT_TRUE(result.Ok());
  const auto sealed = result.channel_a->Seal(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>("hi"), 2), 5);
  // Presented with the wrong expected sequence number: rejected.
  EXPECT_FALSE(result.channel_b
                   ->Open(std::span<const uint8_t>(sealed.data(),
                                                   sealed.size()),
                          6)
                   .ok());
}

TEST_F(ConstellationTest, TwoFunctionsOnOneNicAttestEachOther) {
  const auto id1 = nic_os_.NfCreate(SimpleImage("f1"));
  const auto id2 = nic_os_.NfCreate(SimpleImage("f2"));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  SnicFunctionParty f1 = Party("F1", id1.value(), SimpleImage("f1"));
  SnicFunctionParty f2 = Party("F2", id2.value(), SimpleImage("f2"));
  Rng session_rng(47);
  const PairwiseResult result =
      EstablishChannel(f1, f2, crypto::SmallTestGroup(), session_rng);
  EXPECT_TRUE(result.Ok());
}

// Known answers recorded before EstablishChannel sent its quotes through the
// wire codec: for fixed seeds, the channel key of a function+enclave pair
// and of a function+function pair. Both ends hold the same key, and it moves
// if either side's nonce or DH draws move.
TEST_F(ConstellationTest, ChannelKeysKeepRecordedKnownAnswers) {
  const auto id = nic_os_.NfCreate(SimpleImage("tls-mbox"));
  ASSERT_TRUE(id.ok());
  SnicFunctionParty function = Party("F", id.value(), SimpleImage("tls-mbox"));
  Rng platform_rng(41);
  crypto::VendorAuthority platform_vendor(512, platform_rng);
  EnclaveParty enclave("P", {1, 2, 3, 4}, platform_vendor, 512, platform_rng);
  Rng enclave_session(42);
  const PairwiseResult with_enclave = EstablishChannel(
      function, enclave, crypto::SmallTestGroup(), enclave_session);
  ASSERT_TRUE(with_enclave.Ok());
  EXPECT_EQ(with_enclave.channel_a->key(), with_enclave.channel_b->key());
  EXPECT_EQ(
      crypto::DigestToHex(with_enclave.channel_a->key()),
      "15b69c08ae86ee00e92dd1005c96a2538846c1dbb05fffb9aa24ff4a520a35e9");

  const auto id2 = nic_os_.NfCreate(SimpleImage("f2"));
  ASSERT_TRUE(id2.ok());
  SnicFunctionParty peer = Party("F2", id2.value(), SimpleImage("f2"));
  Rng function_session(47);
  const PairwiseResult with_function = EstablishChannel(
      function, peer, crypto::SmallTestGroup(), function_session);
  ASSERT_TRUE(with_function.Ok());
  EXPECT_EQ(with_function.channel_a->key(), with_function.channel_b->key());
  EXPECT_EQ(
      crypto::DigestToHex(with_function.channel_a->key()),
      "7edaec5ce1f1800cb232d9f342b45a8412ae1d317d00af251ba3c5f1139c8b5a");
}

TEST_F(ConstellationTest, PeerRejectsFunctionLaunchedFromAnotherImage) {
  // The tenant uploaded image A; a faulty or hostile NIC OS launched image
  // B in its place. B attests with a valid device chain, but its
  // measurement is not the one the tenant computed for A.
  FunctionImage uploaded = SimpleImage("f");
  FunctionImage launched = uploaded;
  launched.code_and_data[0] ^= 0xff;
  const auto id = nic_os_.NfCreate(launched);
  ASSERT_TRUE(id.ok());
  SnicFunctionParty function = Party("F", id.value(), uploaded);
  Rng platform_rng(48);
  crypto::VendorAuthority platform_vendor(512, platform_rng);
  EnclaveParty enclave("P", {7}, platform_vendor, 512, platform_rng);
  Rng session_rng(49);
  const PairwiseResult result = EstablishChannel(
      enclave, function, crypto::SmallTestGroup(), session_rng);
  EXPECT_FALSE(result.Ok());
  EXPECT_FALSE(result.a_verified_b);
  EXPECT_TRUE(result.b_verified_a);
}

}  // namespace
}  // namespace snic::mgmt
