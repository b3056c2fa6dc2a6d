// Secure constellations (§4.7, Fig. 4b).
//
// A tenant stitches together S-NIC functions and host-level enclaves into a
// constellation of mutually attested computations. Each party holds trusted
// hardware that can produce signed quotes; pairwise attestation yields a
// shared symmetric key; the key seals traffic crossing the (operator-
// observable) NIC/host bus and datacenter network.
//
// Enclaves (SGX/TrustZone) are modeled with the same root-of-trust
// machinery as the NIC: a platform vendor authority endorses per-device
// keys. The paper assumes this symmetry ("if P runs atop trusted hardware
// as well ... F can now ask P to attest to F").

#ifndef SNIC_MGMT_CONSTELLATION_H_
#define SNIC_MGMT_CONSTELLATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/attestation.h"
#include "src/core/snic_device.h"
#include "src/crypto/diffie_hellman.h"
#include "src/crypto/keys.h"

namespace snic::mgmt {

// Anything that can respond to an attestation challenge.
class AttestedParty {
 public:
  virtual ~AttestedParty() = default;

  virtual const std::string& name() const = 0;
  // Produces a quote binding `g_x` (this party's DH contribution) and the
  // verifier's nonce to the party's measured state.
  virtual Result<core::AttestationQuote> Attest(
      const core::AttestationRequest& request) = 0;
  // The vendor key a peer should validate this party's chain against.
  virtual const crypto::RsaPublicKey& vendor_key() const = 0;
  // The measurement a peer should expect (distributed out of band).
  virtual crypto::Sha256Digest expected_measurement() const = 0;
};

// An S-NIC network function as a constellation party. `expected` is what
// the tenant computed from its own image (mgmt::ExpectedMeasurement), never
// what the device reports: a NIC OS that launched another image then fails
// the peer's check.
class SnicFunctionParty : public AttestedParty {
 public:
  SnicFunctionParty(std::string name, core::SnicDevice* device, uint64_t nf_id,
                    const crypto::RsaPublicKey& vendor_key,
                    const crypto::Sha256Digest& expected);

  const std::string& name() const override { return name_; }
  Result<core::AttestationQuote> Attest(
      const core::AttestationRequest& request) override;
  const crypto::RsaPublicKey& vendor_key() const override {
    return vendor_key_;
  }
  crypto::Sha256Digest expected_measurement() const override {
    return expected_;
  }

 private:
  std::string name_;
  core::SnicDevice* device_;
  uint64_t nf_id_;
  crypto::RsaPublicKey vendor_key_;
  crypto::Sha256Digest expected_;
};

// A host-level enclave (SGX-like) as a constellation party.
class EnclaveParty : public AttestedParty {
 public:
  // `code` is the enclave's measured initial state.
  EnclaveParty(std::string name, std::vector<uint8_t> code,
               const crypto::VendorAuthority& platform_vendor,
               size_t rsa_modulus_bits, Rng& rng);

  const std::string& name() const override { return name_; }
  Result<core::AttestationQuote> Attest(
      const core::AttestationRequest& request) override;
  const crypto::RsaPublicKey& vendor_key() const override {
    return vendor_key_;
  }
  crypto::Sha256Digest expected_measurement() const override {
    return measurement_;
  }

 private:
  std::string name_;
  crypto::Sha256Digest measurement_;
  crypto::NicRootOfTrust root_of_trust_;
  crypto::RsaPublicKey vendor_key_;
};

// An established, keyed channel. Seal/Open provide confidentiality (HMAC
// counter keystream) plus integrity (HMAC tag) with a sequence number for
// replay protection.
class SecureChannel {
 public:
  explicit SecureChannel(const crypto::Sha256Digest& key) : key_(key) {}

  std::vector<uint8_t> Seal(std::span<const uint8_t> plaintext, uint64_t seq) const;
  // Returns the plaintext, or an error on tag mismatch.
  Result<std::vector<uint8_t>> Open(std::span<const uint8_t> sealed,
                                    uint64_t seq) const;

  const crypto::Sha256Digest& key() const { return key_; }

 private:
  crypto::Sha256Digest key_;
};

// Outcome of pairwise attestation between two parties.
struct PairwiseResult {
  bool a_verified_b = false;
  bool b_verified_a = false;
  std::optional<SecureChannel> channel_a;  // A's end
  std::optional<SecureChannel> channel_b;  // B's end (same key when honest)

  bool Ok() const {
    return a_verified_b && b_verified_a && channel_a.has_value() &&
           channel_b.has_value();
  }
};

// Runs the full mutual attestation + Diffie-Hellman exchange between two
// parties. `rng` supplies nonces and ephemeral exponents. Each direction
// sends its quote through the wire codec and mgmt::ChallengeQuote; each side
// then keys its channel from the g^x in the peer's decoded, verified quote
// (Appendix A), which for honest parties is the share the request carried.
PairwiseResult EstablishChannel(AttestedParty& a, AttestedParty& b,
                                const crypto::DhGroup& group, Rng& rng);

}  // namespace snic::mgmt

#endif  // SNIC_MGMT_CONSTELLATION_H_
