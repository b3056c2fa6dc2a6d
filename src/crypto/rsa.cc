#include "src/crypto/rsa.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace snic::crypto {
namespace {

// DER DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
constexpr uint8_t kSha256DigestInfo[] = {0x30, 0x31, 0x30, 0x0d, 0x06, 0x09,
                                         0x60, 0x86, 0x48, 0x01, 0x65, 0x03,
                                         0x04, 0x02, 0x01, 0x05, 0x00, 0x04,
                                         0x20};

// Builds the EMSA-PKCS1-v1_5 encoded message block of width `em_len`.
std::vector<uint8_t> EncodeEmsa(const Sha256Digest& digest, size_t em_len) {
  const size_t t_len = sizeof(kSha256DigestInfo) + digest.size();
  SNIC_CHECK(em_len >= t_len + 11);
  std::vector<uint8_t> em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(std::begin(kSha256DigestInfo), std::end(kSha256DigestInfo),
            em.begin() + static_cast<ptrdiff_t>(em_len - t_len));
  std::copy(digest.begin(), digest.end(),
            em.begin() +
                static_cast<ptrdiff_t>(em_len - digest.size()));
  return em;
}

// GenerateRsaKeyPair's memo: (modulus bits, Rng state on entry) -> the key
// pair and the Rng state on exit. Generation is a pure function of that key,
// so a hit returns the same pair and leaves the caller's Rng exactly where
// generation would have; no output can tell a hit from a miss. Every
// SnicDevice seeds its root of trust from one constant and a scenario's
// subject and twin share their vendor seed, so most generations repeat.
struct KeyGenMemo {
  struct Entry {
    RsaKeyPair pair;
    Rng::State exit_state;
  };
  // A full scenario_matrix run stores about 220 keys (one vendor key per
  // scenario, shared by its subject and twin, plus the device EK and AK);
  // past the cap, new generations are simply not remembered, so the memo's
  // memory stays bounded (a few MB at most).
  static constexpr size_t kCapacity = 4096;

  Mutex mu;
  std::map<std::pair<size_t, Rng::State>, Entry> entries SNIC_GUARDED_BY(mu);
};

KeyGenMemo& Memo() {
  // The one process-wide crypto state, audited in
  // tools/snic_lint/allowlist.txt: a cache of a pure function behind a
  // mutex, so what it returns never depends on which thread filled it or
  // when. Never destroyed, like obs::GlobalRegistry, so a generation racing
  // static destruction still finds it.
  static KeyGenMemo* memo = new KeyGenMemo();
  return *memo;
}

RsaKeyPair GenerateUncached(size_t modulus_bits, Rng& rng) {
  const BigUint e(65537);
  for (;;) {
    const BigUint p = BigUint::GeneratePrime(modulus_bits / 2, rng);
    const BigUint q = BigUint::GeneratePrime(modulus_bits / 2, rng);
    if (p == q) {
      continue;
    }
    const BigUint n = BigUint::Mul(p, q);
    const BigUint phi = BigUint::Mul(BigUint::Sub(p, BigUint(1)),
                                     BigUint::Sub(q, BigUint(1)));
    BigUint d;
    if (!BigUint::InvMod(e, phi, &d)) {
      continue;  // e not coprime with phi; re-draw primes
    }
    // The CRT fields come from the primes already drawn: no Rng draw, so
    // the key and everything drawn after it are as without them.
    BigUint qinv;
    SNIC_CHECK(BigUint::InvMod(q, p, &qinv));  // distinct primes: coprime
    RsaKeyPair pair;
    pair.public_key = RsaPublicKey{n, e};
    pair.private_key = RsaPrivateKey{
        .n = n,
        .d = d,
        .p = p,
        .q = q,
        .dp = BigUint::Mod(d, BigUint::Sub(p, BigUint(1))),
        .dq = BigUint::Mod(d, BigUint::Sub(q, BigUint(1))),
        .qinv = std::move(qinv)};
    return pair;
  }
}

}  // namespace

RsaKeyPair GenerateRsaKeyPair(size_t modulus_bits, Rng& rng) {
  SNIC_CHECK(modulus_bits >= 256);
  KeyGenMemo& memo = Memo();
  const std::pair<size_t, Rng::State> key(modulus_bits, rng.SaveState());
  {
    MutexLock lock(&memo.mu);
    const auto it = memo.entries.find(key);
    if (it != memo.entries.end()) {
      rng.RestoreState(it->second.exit_state);
      return it->second.pair;
    }
  }
  // Generate outside the lock: two threads missing on the same key both
  // generate, and both get the one pair the key determines.
  RsaKeyPair pair = GenerateUncached(modulus_bits, rng);
  MutexLock lock(&memo.mu);
  if (memo.entries.size() < KeyGenMemo::kCapacity) {
    memo.entries.try_emplace(key, KeyGenMemo::Entry{pair, rng.SaveState()});
  }
  return pair;
}

std::vector<uint8_t> RsaSignDigest(const RsaPrivateKey& key,
                                   const Sha256Digest& digest) {
  const size_t k = (key.n.BitLength() + 7) / 8;
  const std::vector<uint8_t> em = EncodeEmsa(digest, k);
  const BigUint m = BigUint::FromBytes(em);
  // s = m^d mod n by CRT: s_p = m^dp mod p and s_q = m^dq mod q, then
  // Garner's s = s_q + q * (qinv * (s_p - s_q) mod p), which is below n.
  // Adding p keeps the difference non-negative.
  const BigUint s_p = BigUint::PowMod(m, key.dp, key.p);
  const BigUint s_q = BigUint::PowMod(m, key.dq, key.q);
  const BigUint diff =
      BigUint::Sub(BigUint::Add(s_p, key.p), BigUint::Mod(s_q, key.p));
  const BigUint h = BigUint::MulMod(key.qinv, diff, key.p);
  const BigUint s = BigUint::Add(s_q, BigUint::Mul(h, key.q));
  return s.ToBytesPadded(k);
}

std::vector<uint8_t> RsaSign(const RsaPrivateKey& key,
                             std::span<const uint8_t> message) {
  return RsaSignDigest(key, Sha256::Hash(message));
}

bool RsaVerifyDigest(const RsaPublicKey& key, const Sha256Digest& digest,
                     std::span<const uint8_t> signature) {
  const size_t k = key.ModulusBytes();
  if (signature.size() != k) {
    return false;
  }
  const BigUint s = BigUint::FromBytes(signature);
  if (s >= key.n) {
    return false;
  }
  const BigUint m = BigUint::PowMod(s, key.e, key.n);
  const std::vector<uint8_t> em = m.ToBytesPadded(k);
  const std::vector<uint8_t> expected = EncodeEmsa(digest, k);
  return em == expected;
}

bool RsaVerify(const RsaPublicKey& key, std::span<const uint8_t> message,
               std::span<const uint8_t> signature) {
  return RsaVerifyDigest(key, Sha256::Hash(message), signature);
}

}  // namespace snic::crypto
