#include "src/mgmt/verifier.h"

#include <tuple>

#include "src/common/process_memo.h"
#include "src/common/units.h"
#include "src/core/attestation_wire.h"
#include "src/crypto/sha256.h"

namespace snic::mgmt {

crypto::Sha256Digest ExpectedMeasurement(const FunctionImage& image,
                                         uint64_t page_bytes) {
  // nf_launch digests the image page by page, zero-padded to page size:
  // the image bytes straight from the image, then the zero tail of the last
  // page.
  const std::vector<uint8_t>& code = image.code_and_data;
  crypto::Sha256 hasher;
  hasher.Update(code.data(), code.size());
  hasher.UpdateZeros(CeilDiv(code.size(), page_bytes) * page_bytes -
                     code.size());
  const std::vector<uint8_t> config = image.SerializeConfig();
  hasher.Update(config.data(), config.size());
  return hasher.Finalize();
}

crypto::Sha256Digest MemoizedExpectedMeasurement(const FunctionImage& image,
                                                 uint64_t page_bytes) {
  // Keyed by the exact inputs of ExpectedMeasurement (page size, image
  // bytes, serialized configuration). Supervisors predict the same few
  // tenant images on every launch and relaunch, across scenarios and
  // threads; a full scenario_matrix run stores 20 images of 3,000 bytes
  // each, so 1024 entries stay a few MB for runner-sized images.
  using Memo = ProcessMemo<struct ExpectedMeasurementTag,
                           std::tuple<uint64_t, std::vector<uint8_t>,
                                      std::vector<uint8_t>>,
                           crypto::Sha256Digest, 1024>;
  return Memo::Instance().GetOrCompute(
      {page_bytes, image.code_and_data, image.SerializeConfig()},
      [&] { return ExpectedMeasurement(image, page_bytes); });
}

namespace {

// The check behind ChallengeQuote and Verifier::VerifyAndKey, and the one
// place a QuoteVerification becomes a status. The group test comes last, on
// an authenticated quote: a device signs whatever group the request named,
// and keying a share from another group would abort in DhParticipant.
Status CheckQuote(const core::AttestationQuote& quote,
                  const crypto::RsaPublicKey& vendor_key,
                  const crypto::DhGroup& group,
                  const std::vector<uint8_t>& nonce,
                  const crypto::Sha256Digest& expected_measurement,
                  const std::string& name) {
  const core::QuoteVerification verification =
      core::VerifyQuote(vendor_key, quote, nonce, &expected_measurement);
  if (!verification.chain_ok) {
    return PermissionDenied("certificate chain does not reach the vendor");
  }
  if (!verification.signature_ok) {
    return PermissionDenied("quote signature invalid");
  }
  if (!verification.nonce_ok) {
    return PermissionDenied("stale or replayed nonce");
  }
  if (!verification.measurement_ok) {
    return PermissionDenied(
        "measurement mismatch: the NIC OS launched something other than "
        "the uploaded image/config for " +
        name);
  }
  if (quote.group.g != group.g || quote.group.p != group.p ||
      quote.g_x.IsZero() || quote.g_x >= group.p) {
    return PermissionDenied(
        "quote's Diffie-Hellman share is not in the challenger's group");
  }
  return OkStatus();
}

}  // namespace

Result<core::AttestationQuote> ChallengeQuote(
    std::span<const uint8_t> quote_bytes,
    const crypto::RsaPublicKey& vendor_key, const crypto::DhGroup& group,
    const std::vector<uint8_t>& nonce,
    const crypto::Sha256Digest& expected_measurement,
    const std::string& name) {
  Result<core::AttestationQuote> quote = core::DeserializeQuote(quote_bytes);
  if (!quote.ok()) {
    return PermissionDenied("undecodable quote: " + quote.status().message());
  }
  if (Status s = CheckQuote(quote.value(), vendor_key, group, nonce,
                            expected_measurement, name);
      !s.ok()) {
    return s;
  }
  return quote;
}

void Verifier::ExpectFunction(const std::string& name,
                              const crypto::Sha256Digest& measurement) {
  expected_[name] = measurement;
}

Result<SecureChannel> Verifier::VerifyAndKey(
    const std::string& name, const core::AttestationQuote& quote,
    const std::vector<uint8_t>& nonce,
    const crypto::DhParticipant& my_dh) const {
  const auto it = expected_.find(name);
  if (it == expected_.end()) {
    return NotFound("no expected measurement registered for " + name);
  }
  if (Status s = CheckQuote(quote, vendor_key_, my_dh.group(), nonce,
                            it->second, name);
      !s.ok()) {
    return s;
  }
  return SecureChannel(my_dh.DeriveChannelKey(quote.g_x));
}

}  // namespace snic::mgmt
