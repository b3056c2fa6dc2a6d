#include "src/crypto/diffie_hellman.h"

#include <cstring>
#include <string_view>

#include "src/common/status.h"

namespace snic::crypto {

DhGroup Modp1536Group() {
  // RFC 3526, group 5 (1536-bit MODP), generator 2.
  static const char* kPrimeHex =
      "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
      "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
      "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
      "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
      "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
      "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
      "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
      "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF";
  return DhGroup{BigUint(2), BigUint::FromHex(kPrimeHex)};
}

DhGroup SmallTestGroup() {
  // A 256-bit probable prime (not a safe prime) drawn at first use from a
  // fixed seed, so every run gets the same group without paying 1536-bit
  // exponentiation.
  static const DhGroup kGroup = [] {
    Rng rng(0x5eedf00dULL);
    return DhGroup{BigUint(2), BigUint::GeneratePrime(256, rng)};
  }();
  return kGroup;
}

DhParticipant::DhParticipant(const DhGroup& group, Rng& rng) : group_(group) {
  const BigUint two(2);
  const BigUint hi = BigUint::Sub(group_.p, two);
  secret_ = BigUint::RandomInRange(two, hi, rng);
  public_value_ = BigUint::PowMod(group_.g, secret_, group_.p);
}

BigUint DhParticipant::ComputeSharedSecret(const BigUint& peer_public) const {
  SNIC_CHECK(!peer_public.IsZero());
  SNIC_CHECK(peer_public < group_.p);
  return BigUint::PowMod(peer_public, secret_, group_.p);
}

Sha256Digest DhParticipant::DeriveChannelKey(const BigUint& peer_public) const {
  const BigUint shared = ComputeSharedSecret(peer_public);
  const std::vector<uint8_t> bytes = shared.ToBytes();
  static constexpr std::string_view kLabel = "snic-attest-v1";
  return HmacSha256(
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(kLabel.data()), kLabel.size()),
      std::span<const uint8_t>(bytes.data(), bytes.size()));
}

}  // namespace snic::crypto
