#include "src/mgmt/verifier.h"

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/core/attestation_wire.h"
#include "src/crypto/sha256.h"

namespace snic::mgmt {

crypto::Sha256Digest ExpectedMeasurement(const FunctionImage& image,
                                         uint64_t page_bytes) {
  // nf_launch digests the image page by page, zero-padded to page size:
  // the image bytes straight from the image, then the zero tail of the last
  // page from a small constant block.
  static constexpr std::array<uint8_t, 4096> kZeros{};
  const std::vector<uint8_t>& code = image.code_and_data;
  crypto::Sha256 hasher;
  hasher.Update(code.data(), code.size());
  uint64_t tail = CeilDiv(code.size(), page_bytes) * page_bytes - code.size();
  while (tail > 0) {
    const uint64_t chunk = std::min<uint64_t>(tail, kZeros.size());
    hasher.Update(kZeros.data(), chunk);
    tail -= chunk;
  }
  const std::vector<uint8_t> config = image.SerializeConfig();
  hasher.Update(config.data(), config.size());
  return hasher.Finalize();
}

namespace {

// MemoizedExpectedMeasurement's memo: the exact inputs of
// ExpectedMeasurement (page size, image bytes, serialized configuration) ->
// its digest. The digest is a pure function of that key, so a hit is
// indistinguishable from a recomputation. Supervisors predict the same few
// tenant images on every launch and relaunch, across scenarios and threads.
struct MeasurementMemo {
  using Key = std::tuple<uint64_t, std::vector<uint8_t>, std::vector<uint8_t>>;
  // A full scenario_matrix run stores 20 images of 3,000 bytes each;
  // past the cap, new images are simply not remembered, so the memo's
  // memory stays bounded (a few MB for runner-sized images).
  static constexpr size_t kCapacity = 1024;

  Mutex mu;
  std::map<Key, crypto::Sha256Digest> entries SNIC_GUARDED_BY(mu);
};

MeasurementMemo& Memo() {
  // Audited in tools/snic_lint/allowlist.txt: a cache of a pure function
  // behind a mutex, so what it returns never depends on which thread filled
  // it or when. Never destroyed, like the key-generation memo in
  // src/crypto/rsa.cc, so a lookup racing static destruction still finds it.
  static MeasurementMemo* memo = new MeasurementMemo();
  return *memo;
}

}  // namespace

crypto::Sha256Digest MemoizedExpectedMeasurement(const FunctionImage& image,
                                                 uint64_t page_bytes) {
  MeasurementMemo& memo = Memo();
  MeasurementMemo::Key key(page_bytes, image.code_and_data,
                           image.SerializeConfig());
  {
    MutexLock lock(&memo.mu);
    const auto it = memo.entries.find(key);
    if (it != memo.entries.end()) {
      return it->second;
    }
  }
  // Hash outside the lock: two threads missing on the same key both hash,
  // and both get the one digest the key determines.
  const crypto::Sha256Digest digest = ExpectedMeasurement(image, page_bytes);
  MutexLock lock(&memo.mu);
  if (memo.entries.size() < MeasurementMemo::kCapacity) {
    memo.entries.try_emplace(std::move(key), digest);
  }
  return digest;
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
