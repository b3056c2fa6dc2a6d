// Tests for the tenant-side verifier: the §4.8 claim that a hostile NIC OS
// "improperly setting up" a function (dropped pages, altered configuration,
// swapped rules) is always caught by attestation.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/units.h"
#include "src/core/attestation_wire.h"
#include "src/mgmt/verifier.h"
#include "src/net/parser.h"

namespace snic::mgmt {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : rng_(80), vendor_(512, rng_), device_(Config(), vendor_),
        nic_os_(&device_) {}

  static core::SnicConfig Config() {
    core::SnicConfig config;
    config.num_cores = 8;
    config.dram_bytes = 64ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  static FunctionImage Image() {
    FunctionImage image;
    image.name = "tenant-fn";
    image.code_and_data.assign(5000, 0x61);
    image.code_and_data[4000] = 0x7f;  // non-uniform content
    image.memory_bytes = 6ull << 20;
    net::SwitchRule rule;
    rule.dst_port = 443;
    image.switch_rules.push_back(rule);
    return image;
  }

  core::AttestationQuote QuoteFor(uint64_t nf_id,
                                  const std::vector<uint8_t>& nonce,
                                  const crypto::DhParticipant& dh) {
    core::AttestationRequest request;
    request.group = crypto::SmallTestGroup();
    request.nonce = nonce;
    request.g_x = dh.public_value();
    auto quote = device_.NfAttest(nf_id, request);
    SNIC_CHECK(quote.ok());
    return quote.value();
  }

  Rng rng_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  NicOs nic_os_;
};

TEST_F(VerifierTest, ExpectedMeasurementMatchesHardware) {
  const FunctionImage image = Image();
  const auto id = nic_os_.NfCreate(image);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(ExpectedMeasurement(image, device_.config().page_bytes),
            device_.MeasurementOf(id.value()).value());
}

TEST_F(VerifierTest, HonestLaunchVerifiesAndKeysChannel) {
  const FunctionImage image = Image();
  const auto id = nic_os_.NfCreate(image);
  ASSERT_TRUE(id.ok());

  Verifier verifier(vendor_.public_key());
  verifier.ExpectFunction(
      image.name, ExpectedMeasurement(image, device_.config().page_bytes));

  crypto::DhParticipant function_dh(crypto::SmallTestGroup(), rng_);
  crypto::DhParticipant verifier_dh(crypto::SmallTestGroup(), rng_);
  const std::vector<uint8_t> nonce = {5, 5, 5, 5};
  const auto quote = QuoteFor(id.value(), nonce, function_dh);

  const auto channel =
      verifier.VerifyAndKey(image.name, quote, nonce, verifier_dh);
  ASSERT_TRUE(channel.ok());
  // Both sides hold the same key.
  EXPECT_EQ(channel.value().key(),
            function_dh.DeriveChannelKey(verifier_dh.public_value()));
}

TEST_F(VerifierTest, HostileOsTruncatingCodeDetected) {
  // The NIC OS launches a truncated image (omitting the tail page, §4.8).
  FunctionImage truncated = Image();
  truncated.code_and_data.resize(1000);
  const auto id = nic_os_.NfCreate(truncated);
  ASSERT_TRUE(id.ok());

  Verifier verifier(vendor_.public_key());
  verifier.ExpectFunction(
      "tenant-fn", ExpectedMeasurement(Image(), device_.config().page_bytes));
  crypto::DhParticipant dh(crypto::SmallTestGroup(), rng_);
  const auto quote = QuoteFor(id.value(), {1}, dh);
  const auto channel = verifier.VerifyAndKey("tenant-fn", quote, {1}, dh);
  EXPECT_FALSE(channel.ok());
  EXPECT_EQ(channel.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_NE(channel.status().message().find("measurement mismatch"),
            std::string::npos);
}

TEST_F(VerifierTest, HostileOsAlteringRulesDetected) {
  // The OS swaps the tenant's switch rule for one steering traffic away.
  FunctionImage tampered = Image();
  tampered.switch_rules.clear();
  net::SwitchRule hostile;
  hostile.dst_port = 1;  // not what the tenant asked for
  tampered.switch_rules.push_back(hostile);
  const auto id = nic_os_.NfCreate(tampered);
  ASSERT_TRUE(id.ok());

  Verifier verifier(vendor_.public_key());
  verifier.ExpectFunction(
      "tenant-fn", ExpectedMeasurement(Image(), device_.config().page_bytes));
  crypto::DhParticipant dh(crypto::SmallTestGroup(), rng_);
  const auto quote = QuoteFor(id.value(), {2}, dh);
  EXPECT_FALSE(verifier.VerifyAndKey("tenant-fn", quote, {2}, dh).ok());
}

TEST_F(VerifierTest, FlippedImageByteDetected) {
  FunctionImage flipped = Image();
  flipped.code_and_data[123] ^= 1;
  const auto id = nic_os_.NfCreate(flipped);
  ASSERT_TRUE(id.ok());
  EXPECT_NE(ExpectedMeasurement(Image(), device_.config().page_bytes),
            device_.MeasurementOf(id.value()).value());
}

TEST_F(VerifierTest, UnknownFunctionRejected) {
  Verifier verifier(vendor_.public_key());
  crypto::DhParticipant dh(crypto::SmallTestGroup(), rng_);
  const auto id = nic_os_.NfCreate(Image());
  ASSERT_TRUE(id.ok());
  const auto quote = QuoteFor(id.value(), {3}, dh);
  EXPECT_EQ(verifier.VerifyAndKey("never-registered", quote, {3}, dh)
                .status()
                .code(),
            ErrorCode::kNotFound);
}

TEST_F(VerifierTest, StaleNonceRejected) {
  const FunctionImage image = Image();
  const auto id = nic_os_.NfCreate(image);
  ASSERT_TRUE(id.ok());
  Verifier verifier(vendor_.public_key());
  verifier.ExpectFunction(
      image.name, ExpectedMeasurement(image, device_.config().page_bytes));
  crypto::DhParticipant dh(crypto::SmallTestGroup(), rng_);
  const auto quote = QuoteFor(id.value(), {7, 7}, dh);
  // The verifier expected a different nonce (replay scenario).
  EXPECT_EQ(verifier.VerifyAndKey(image.name, quote, {8, 8}, dh)
                .status()
                .code(),
            ErrorCode::kPermissionDenied);
}

// Genuine, correctly signed quotes whose DH share the verifier cannot key
// from: the device signs whatever group and g^x the request named. Keying
// the verifier's share against such a g^x used to abort the process (the
// peer value is zero, or not below the verifier's modulus); now the quote is
// refused with PermissionDenied before anything is keyed, both by
// VerifyAndKey and by ChallengeQuote on the quote's wire bytes.
TEST_F(VerifierTest, ShareOutsideTheVerifiersGroupIsRejectedBeforeKeying) {
  const FunctionImage image = Image();
  const auto id = nic_os_.NfCreate(image);
  ASSERT_TRUE(id.ok());
  const crypto::Sha256Digest expected =
      ExpectedMeasurement(image, device_.config().page_bytes);
  Verifier verifier(vendor_.public_key());
  verifier.ExpectFunction(image.name, expected);
  const crypto::DhGroup group = crypto::SmallTestGroup();
  crypto::DhParticipant verifier_dh(group, rng_);

  core::AttestationRequest foreign_group;
  foreign_group.group = crypto::Modp1536Group();
  foreign_group.g_x = crypto::DhParticipant(foreign_group.group, rng_)
                          .public_value();
  core::AttestationRequest zero_share;
  zero_share.group = group;
  core::AttestationRequest share_is_p;
  share_is_p.group = group;
  share_is_p.g_x = group.p;

  for (core::AttestationRequest request :
       {foreign_group, zero_share, share_is_p}) {
    request.nonce = {4, 4};
    const auto quote = device_.NfAttest(id.value(), request);
    ASSERT_TRUE(quote.ok());
    // Every VerifyQuote check passes: the quote is authentic.
    ASSERT_TRUE(core::VerifyQuote(vendor_.public_key(), quote.value(),
                                  request.nonce, &expected)
                    .Ok());

    const auto channel = verifier.VerifyAndKey(image.name, quote.value(),
                                               request.nonce, verifier_dh);
    ASSERT_FALSE(channel.ok());
    EXPECT_EQ(channel.status().code(), ErrorCode::kPermissionDenied);
    EXPECT_NE(channel.status().message().find("group"), std::string::npos);

    const auto challenged = ChallengeQuote(
        core::SerializeQuote(quote.value()), vendor_.public_key(), group,
        request.nonce, expected, image.name);
    EXPECT_EQ(challenged.status().code(), ErrorCode::kPermissionDenied);
  }
}


// ---------------------------------------------------------------------------
// Measurement known answers and oracle. nf_launch digests every image page
// as a whole page (a never-written page as zeros), then the configuration
// blob; ExpectedMeasurement predicts the same digest from the image alone.
// The digests below were recorded from the padded-buffer implementation
// (every page copied into a zero-filled page_bytes buffer and hashed whole)
// and pin both sides: the tenant's prediction and the device's MeasurementOf.
// ---------------------------------------------------------------------------

constexpr uint64_t kHugePage = 2ull << 20;
constexpr uint64_t kSmallPage = 64ull << 10;

// The padded-buffer loop ExpectedMeasurement used to run, kept as the oracle
// for the in-place hashing on both sides.
crypto::Sha256Digest PaddedOracle(const std::vector<uint8_t>& code,
                                  const std::vector<uint8_t>& config,
                                  uint64_t page_bytes) {
  crypto::Sha256 hasher;
  const uint64_t pages = CeilDiv(code.size(), page_bytes);
  std::vector<uint8_t> page(page_bytes, 0);
  for (uint64_t p = 0; p < pages; ++p) {
    std::fill(page.begin(), page.end(), 0);
    const uint64_t offset = p * page_bytes;
    const uint64_t chunk = std::min<uint64_t>(page_bytes, code.size() - offset);
    std::copy(code.begin() + static_cast<ptrdiff_t>(offset),
              code.begin() + static_cast<ptrdiff_t>(offset + chunk),
              page.begin());
    hasher.Update(page.data(), page.size());
  }
  hasher.Update(config.data(), config.size());
  return hasher.Finalize();
}

crypto::Sha256Digest PaddedOracle(const FunctionImage& image,
                                  uint64_t page_bytes) {
  return PaddedOracle(image.code_and_data, image.SerializeConfig(),
                      page_bytes);
}

// Non-uniform bytes: a shifted, dropped or re-padded chunk changes the digest.
std::vector<uint8_t> Pattern(size_t size) {
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131 + (i >> 9));
  }
  return bytes;
}

// The scenario runner's tenant image (src/scenario/runner.cc MakeImage): 3,000
// bytes of code, one core, 8 MiB, one switch rule. The degraded flavour is
// the one the Supervisor relaunches after repeated accelerator faults.
FunctionImage RunnerShapedImage(bool degraded) {
  FunctionImage image;
  image.name = "victim-a";
  image.code_and_data.assign(3000, 0xab);
  image.cores = 1;
  image.memory_bytes = 8ull << 20;
  image.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kZip)] =
      degraded ? 0 : 1;
  net::SwitchRule rule;
  rule.dst_port = 9001;
  image.switch_rules.push_back(rule);
  return image;
}

FunctionImage PatternImage(size_t code_bytes) {
  FunctionImage image;
  image.name = "pattern-fn";
  image.code_and_data = Pattern(code_bytes);
  image.memory_bytes = 1ull << 20;
  net::SwitchRule rule;
  rule.dst_port = 8080;
  image.switch_rules.push_back(rule);
  return image;
}

struct KnownAnswer {
  const char* what;
  FunctionImage image;
  uint64_t page_bytes;
  const char* digest_hex;
};

std::vector<KnownAnswer> KnownAnswers() {
  return {
      {"runner image", RunnerShapedImage(/*degraded=*/false), kHugePage,
       "04e4f374bdc492746c521c80cc57ec28cee7b8589b77be84def66382cfbf9bee"},
      {"runner image, degraded", RunnerShapedImage(/*degraded=*/true),
       kHugePage,
       "66e481483c6cd9336f152b3b551474c1e105faec9f22f21a7c1e84e14fbd45b8"},
      {"exact page multiple", PatternImage(2 * kSmallPage), kSmallPage,
       "6ba937d5a787813e057b28f6a00ca6b8bb99a69cdd5843259c72475fd8d9230e"},
      {"partial last page", PatternImage(3 * kSmallPage + 1234), kSmallPage,
       "33ca6f6fc6d88673de9ac0964e1914991d7a1a8cc0feb1713c0c4b36d175d827"},
  };
}

// A keyed device with `page_bytes` pages and the NIC OS that stages images
// onto it.
class PagedDevice {
 public:
  explicit PagedDevice(uint64_t page_bytes)
      : rng_(81), vendor_(512, rng_), device_(Config(page_bytes), vendor_),
        nic_os_(&device_) {}

  static core::SnicConfig Config(uint64_t page_bytes) {
    core::SnicConfig config;
    config.num_cores = 4;
    config.dram_bytes = 32ull << 20;
    config.page_bytes = page_bytes;
    config.rsa_modulus_bits = 512;
    return config;
  }

  // Launches `image` through the NIC OS and returns the device's digest.
  crypto::Sha256Digest Measure(const FunctionImage& image) {
    const auto id = nic_os_.NfCreate(image);
    SNIC_CHECK(id.ok());
    const auto measured = device_.MeasurementOf(id.value());
    SNIC_CHECK(measured.ok());
    SNIC_CHECK_OK(nic_os_.NfDestroy(id.value()));
    return measured.value();
  }

  core::SnicDevice& device() { return device_; }

 private:
  Rng rng_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  NicOs nic_os_;
};

TEST(MeasurementKnownAnswerTest, ExpectedMeasurementKeepsRecordedDigests) {
  for (const KnownAnswer& answer : KnownAnswers()) {
    EXPECT_EQ(crypto::DigestToHex(
                  ExpectedMeasurement(answer.image, answer.page_bytes)),
              answer.digest_hex)
        << answer.what;
  }
}

TEST(MeasurementKnownAnswerTest, DeviceMeasurementKeepsRecordedDigests) {
  PagedDevice huge(kHugePage);
  PagedDevice small(kSmallPage);
  for (const KnownAnswer& answer : KnownAnswers()) {
    PagedDevice& device = answer.page_bytes == kHugePage ? huge : small;
    EXPECT_EQ(crypto::DigestToHex(device.Measure(answer.image)),
              answer.digest_hex)
        << answer.what;
  }
}

// Seeded sizes on both sides of every page boundary up to three pages, at
// two page sizes: the tenant's prediction equals the padded-buffer oracle.
TEST(MeasurementKnownAnswerTest, ExpectedMeasurementMatchesPaddedOracle) {
  Rng rng(0x3ea5);
  for (const uint64_t page_bytes : {uint64_t{4096}, kSmallPage}) {
    std::vector<uint64_t> sizes = {0, 1, 63, 64, 65};
    for (uint64_t pages = 1; pages <= 3; ++pages) {
      for (const int64_t delta : {-65, -64, -63, -1, 0, 1, 63, 64, 65}) {
        sizes.push_back(static_cast<uint64_t>(
            static_cast<int64_t>(pages * page_bytes) + delta));
      }
      sizes.push_back((pages - 1) * page_bytes + 1 +
                      rng.NextBounded(page_bytes));
    }
    for (const uint64_t size : sizes) {
      FunctionImage image = PatternImage(size);
      for (uint8_t& b : image.code_and_data) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      EXPECT_EQ(ExpectedMeasurement(image, page_bytes),
                PaddedOracle(image, page_bytes))
          << "page_bytes=" << page_bytes << " size=" << size;
    }
  }
}

// The device's in-place page digest equals the oracle around 64 KiB
// boundaries.
TEST(MeasurementKnownAnswerTest, DeviceMeasurementMatchesPaddedOracle) {
  PagedDevice small(kSmallPage);
  Rng rng(0x3ea6);
  for (const uint64_t size :
       {uint64_t{1}, kSmallPage - 1, kSmallPage, kSmallPage + 1,
        2 * kSmallPage - 64, 2 * kSmallPage + 63,
        kSmallPage + 1 + rng.NextBounded(kSmallPage)}) {
    FunctionImage image = PatternImage(size);
    for (uint8_t& b : image.code_and_data) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    EXPECT_EQ(small.Measure(image), PaddedOracle(image, kSmallPage))
        << "size=" << size;
  }
}

// A staged image page the NIC OS never wrote is measured as a page of
// zeros: the device hashes what the function would read.
TEST(MeasurementKnownAnswerTest, NeverWrittenImagePageHashesAsZeros) {
  PagedDevice small(kSmallPage);
  core::SnicDevice& device = small.device();
  const auto pages = device.memory().AllocatePages(2, core::kPageNicOs);
  ASSERT_TRUE(pages.ok());
  const std::vector<uint8_t> written = Pattern(1000);
  device.memory().Write(pages.value()[0] * kSmallPage,
                        std::span<const uint8_t>(written));
  core::NfLaunchArgs args;
  args.core_mask = 0b10;
  args.image_pages = pages.value();  // the second page is never written
  args.config_blob = {4, 5, 6};
  const auto id = device.NfLaunch(args);
  ASSERT_TRUE(id.ok());

  std::vector<uint8_t> as_read(2 * kSmallPage, 0);
  std::copy(written.begin(), written.end(), as_read.begin());
  const crypto::Sha256Digest measured =
      device.MeasurementOf(id.value()).value();
  EXPECT_EQ(measured, PaddedOracle(as_read, args.config_blob, kSmallPage));
  EXPECT_EQ(crypto::DigestToHex(measured),
            "810204b578b30745d0674e3776a26bd1c1cf64c6bd494f229767d0c8f57957d9");
}

}  // namespace
}  // namespace snic::mgmt
