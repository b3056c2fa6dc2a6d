// Classic finite-field Diffie-Hellman, as used by the S-NIC attestation
// protocol (Appendix A): the function F contributes g^x mod p, the verifier
// contributes g^y mod p, and both derive the channel key from g^xy mod p.

#ifndef SNIC_CRYPTO_DIFFIE_HELLMAN_H_
#define SNIC_CRYPTO_DIFFIE_HELLMAN_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/crypto/bignum.h"
#include "src/crypto/sha256.h"

namespace snic::crypto {

// Public group parameters (g, p). p must be prime, g a generator.
struct DhGroup {
  BigUint g;
  BigUint p;
};

// The RFC 3526 1536-bit MODP group (generator 2, a safe prime).
DhGroup Modp1536Group();
// Generator 2 over a 256-bit probable prime drawn once from a fixed seed; not
// a safe prime, and 2 need not generate the whole group. Despite the name it
// is the group every attestation channel in the tree uses: the Supervisor,
// fig6, quickstart and perfbench all run on it, because a 256-bit
// exponentiation costs a fraction of a 1536-bit one. Only
// examples/secure_constellation uses Modp1536Group.
DhGroup SmallTestGroup();

class DhParticipant {
 public:
  // Draws the secret exponent x uniformly from [2, p-2].
  DhParticipant(const DhGroup& group, Rng& rng);

  // g^x mod p — sent to the peer.
  const BigUint& public_value() const { return public_value_; }

  // Computes g^xy mod p from the peer's public value.
  BigUint ComputeSharedSecret(const BigUint& peer_public) const;

  // Channel key = HMAC-SHA256(key = "snic-attest-v1", shared-secret bytes).
  Sha256Digest DeriveChannelKey(const BigUint& peer_public) const;

 private:
  DhGroup group_;
  BigUint secret_;
  BigUint public_value_;
};

}  // namespace snic::crypto

#endif  // SNIC_CRYPTO_DIFFIE_HELLMAN_H_
