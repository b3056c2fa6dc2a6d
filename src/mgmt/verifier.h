// Tenant-side attestation verifier.
//
// The tenant knows what it uploaded; the NIC OS is untrusted and "may
// improperly setup a function, e.g., by omitting a code page from the
// registration process. Remote clients can detect improper function setups
// by requiring the function to attest" (§4.8). This module gives the tenant
// the two halves of that check:
//   * ExpectedMeasurement() — recompute, from the uploaded image alone, the
//     cumulative hash trusted hardware will produce at nf_launch (and
//     MemoizedExpectedMeasurement(), the same once per distinct image);
//   * ChallengeQuote() — the one attestation check every challenger runs:
//     the quote arrives as bytes over the untrusted network, is decoded
//     strictly, then verified against the challenger's vendor key, nonce,
//     DH group and expected measurement;
//   * Verifier — a policy object holding trusted vendor keys and expected
//     measurements, which validates quotes end to end and issues channel
//     keys only for functions that match.

#ifndef SNIC_MGMT_VERIFIER_H_
#define SNIC_MGMT_VERIFIER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/attestation.h"
#include "src/crypto/diffie_hellman.h"
#include "src/mgmt/constellation.h"
#include "src/mgmt/nic_os.h"

namespace snic::mgmt {

// Recomputes the launch-time measurement for an image: the image bytes
// padded to whole pages of `page_bytes` (nf_launch hashes full pages) plus
// the serialized configuration. Must track SnicDevice::NfLaunch exactly —
// the integration tests pin the two together.
crypto::Sha256Digest ExpectedMeasurement(const FunctionImage& image,
                                         uint64_t page_bytes);

// ExpectedMeasurement through a process-wide memo keyed by its exact inputs
// (page_bytes, image.code_and_data, image.SerializeConfig()), for callers
// that predict the same image again and again — the Supervisor on every
// relaunch. Thread-safe; the memo stops growing at a fixed entry cap and is
// never destroyed. Callers whose images never repeat (multi-MB one-off
// uploads) should call ExpectedMeasurement directly: the memo keeps a copy
// of every image it stores.
crypto::Sha256Digest MemoizedExpectedMeasurement(const FunctionImage& image,
                                                 uint64_t page_bytes);

// The attestation challenge of Appendix A / Fig. 4, on the verifier's side:
// `quote_bytes` arrived for a challenge of `nonce` in DH `group`. Decodes
// them (core::DeserializeQuote), verifies the certificate chain, signature,
// nonce and `expected_measurement` against `vendor_key`, and requires the
// quote's group to be `group` and its g_x to lie in it. Returns the decoded
// quote, whose g_x the challenger keys from; every rejection is
// PermissionDenied. `name` only labels the measurement-mismatch message.
Result<core::AttestationQuote> ChallengeQuote(
    std::span<const uint8_t> quote_bytes,
    const crypto::RsaPublicKey& vendor_key, const crypto::DhGroup& group,
    const std::vector<uint8_t>& nonce,
    const crypto::Sha256Digest& expected_measurement, const std::string& name);

class Verifier {
 public:
  explicit Verifier(crypto::RsaPublicKey trusted_vendor_key)
      : vendor_key_(std::move(trusted_vendor_key)) {}

  // Registers what a correctly launched `name` must measure as.
  void ExpectFunction(const std::string& name,
                      const crypto::Sha256Digest& measurement);

  // Runs ChallengeQuote's check against a quote already decoded for
  // `name`, in `my_dh`'s group. On success returns the verifier-side channel
  // (the caller supplied its DH share in the request; the quote carries the
  // function's).
  Result<SecureChannel> VerifyAndKey(const std::string& name,
                                     const core::AttestationQuote& quote,
                                     const std::vector<uint8_t>& nonce,
                                     const crypto::DhParticipant& my_dh) const;

  size_t expected_count() const { return expected_.size(); }

 private:
  crypto::RsaPublicKey vendor_key_;
  std::map<std::string, crypto::Sha256Digest> expected_;
};

}  // namespace snic::mgmt

#endif  // SNIC_MGMT_VERIFIER_H_
