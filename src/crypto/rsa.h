// RSA signatures (PKCS#1 v1.5-style over SHA-256), from scratch.
//
// S-NIC's hardware root of trust holds two RSA key pairs (Appendix A):
//   * the endorsement key pair (EK), burned in at manufacturing time, whose
//     public half is certified by the NIC vendor; and
//   * the attestation key pair (AK), regenerated at boot, whose public half
//     is signed with the EK.
// `nf_attest` signs (hash-of-initial-state || DH parameters || nonce) with
// the AK private key.

#ifndef SNIC_CRYPTO_RSA_H_
#define SNIC_CRYPTO_RSA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/bignum.h"
#include "src/crypto/sha256.h"

namespace snic::crypto {

struct RsaPublicKey {
  BigUint n;  // modulus
  BigUint e;  // public exponent
  // Modulus size in bytes (signature width).
  size_t ModulusBytes() const { return (n.BitLength() + 7) / 8; }
};

struct RsaPrivateKey {
  BigUint n;
  BigUint d;  // private exponent
};

struct RsaKeyPair {
  RsaPublicKey public_key;
  RsaPrivateKey private_key;
};

// Generates an RSA key pair from two random primes of exactly
// modulus_bits/2 bits each (e = 65537), so the modulus has `modulus_bits` or
// `modulus_bits - 1` bits: only each prime's top bit is forced. Deterministic
// given the RNG state, which the tests rely on.
RsaKeyPair GenerateRsaKeyPair(size_t modulus_bits, Rng& rng);

// Signs SHA-256(message) with the EMSA-PKCS1-v1_5 padding layout
// (0x00 0x01 FF.. 0x00 || DigestInfo(SHA-256) || digest).
std::vector<uint8_t> RsaSign(const RsaPrivateKey& key,
                             std::span<const uint8_t> message);

// Verifies a signature produced by RsaSign.
bool RsaVerify(const RsaPublicKey& key, std::span<const uint8_t> message,
               std::span<const uint8_t> signature);

// Signs a precomputed digest (the trusted hardware signs the cumulative
// measurement directly rather than rehashing the function image).
std::vector<uint8_t> RsaSignDigest(const RsaPrivateKey& key,
                                   const Sha256Digest& digest);
bool RsaVerifyDigest(const RsaPublicKey& key, const Sha256Digest& digest,
                     std::span<const uint8_t> signature);

}  // namespace snic::crypto

#endif  // SNIC_CRYPTO_RSA_H_
