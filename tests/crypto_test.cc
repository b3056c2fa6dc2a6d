// Tests for the from-scratch crypto substrate: SHA-256 against FIPS vectors
// and against its scalar compression function as the oracle for the SHA-NI
// one, HMAC against RFC 4231, big-integer arithmetic (including randomized
// cross-checks against native 64-bit math, and the Montgomery PowMod against
// its Mul/DivMod reference), RSA sign/verify with CRT signing checked
// against the private exponent, known-answer keys and signatures, the
// key-generation memo, Diffie-Hellman, and the endorsement/attestation key
// chain.

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/bignum.h"
#include "src/crypto/diffie_hellman.h"
#include "src/crypto/keys.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha256.h"
#include "src/runtime/thread_pool.h"

namespace snic::crypto {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t len) {
  std::vector<uint8_t> out(len);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

// The oracle digest: FIPS 180-4 padding written out here, every block
// through the scalar compression function.
Sha256Digest ScalarOracleDigest(const std::vector<uint8_t>& message) {
  std::vector<uint8_t> padded = message;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) {
    padded.push_back(0x00);
  }
  const uint64_t bits = static_cast<uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Sha256CompressScalar(state, padded.data(), padded.size() / 64);
  Sha256Digest digest;
  for (size_t i = 0; i < 32; ++i) {
    digest[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

// Feeds `message` to a Sha256 in random-length Update calls.
Sha256Digest RandomSplitDigest(const std::vector<uint8_t>& message,
                               Rng& rng) {
  Sha256 h;
  size_t offset = 0;
  while (offset < message.size()) {
    // Mostly short pieces, sometimes several blocks at once.
    const size_t limit = rng.NextBounded(4) == 0 ? 700 : 70;
    const size_t take =
        std::min(message.size() - offset, rng.NextBounded(limit + 1));
    h.Update(message.data() + offset, take);
    offset += take;
  }
  return h.Finalize();
}

TEST(Sha256Test, FipsVectorEmpty) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(nullptr, 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, FipsVectorAbc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc", 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, FipsVectorTwoBlocks) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(DigestToHex(Sha256::Hash(Bytes(msg))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(Bytes(chunk));
  }
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) {
    h.Update(&c, 1);
  }
  EXPECT_EQ(h.Finalize(), Sha256::Hash(Bytes(msg)));
}

TEST(Sha256Test, BoundaryLengths) {
  // Lengths around the 64-byte block boundary must all round-trip the
  // padding logic.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 split;
    split.Update(Bytes(msg.substr(0, len / 2)));
    split.Update(Bytes(msg.substr(len / 2)));
    EXPECT_EQ(split.Finalize(), Sha256::Hash(Bytes(msg))) << "len=" << len;
  }
}

TEST(Sha256Test, RandomSplitsMatchScalarOracle) {
  Rng rng(2401);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len =
        trial < 130 ? static_cast<size_t>(trial) : rng.NextBounded(10'001);
    const std::vector<uint8_t> message = RandomBytes(rng, len);
    const Sha256Digest oracle = ScalarOracleDigest(message);
    EXPECT_EQ(RandomSplitDigest(message, rng), oracle) << "len=" << len;
    EXPECT_EQ(Sha256::Hash(message.data(), message.size()), oracle)
        << "len=" << len;
  }
}

TEST(Sha256Test, ShaNiCompressionMatchesScalar) {
  if (!Sha256HasShaNi()) {
    GTEST_SKIP() << "this CPU has no SHA extensions (SHA-NI), so only the "
                    "scalar compression function can run here";
  }
#if defined(__x86_64__)
  Rng rng(2402);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<uint8_t> message =
        RandomBytes(rng, rng.NextBounded(10'001));
    const size_t blocks = message.size() / 64;
    uint32_t scalar[8];
    for (uint32_t& word : scalar) {
      word = rng.NextU32();
    }
    uint32_t one_call[8];
    uint32_t block_by_block[8];
    std::memcpy(one_call, scalar, sizeof(scalar));
    std::memcpy(block_by_block, scalar, sizeof(scalar));
    Sha256CompressScalar(scalar, message.data(), blocks);
    Sha256CompressShaNi(one_call, message.data(), blocks);
    for (size_t b = 0; b < blocks; ++b) {
      Sha256CompressShaNi(block_by_block, message.data() + 64 * b, 1);
    }
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(one_call[i], scalar[i]) << "blocks=" << blocks << " i=" << i;
      EXPECT_EQ(block_by_block[i], scalar[i])
          << "blocks=" << blocks << " i=" << i;
    }
  }
#endif
}

TEST(Sha256Test, TwoMiBZeroPageKnownAnswer) {
  // The page size nf_launch measures; the digest is Python hashlib's.
  const std::vector<uint8_t> page(2u << 20, 0);
  EXPECT_EQ(DigestToHex(Sha256::Hash(page.data(), page.size())),
            "5647f05ec18958947d32874eeb788fa396a05d0bab7c1b71f112ceb7e9b31eee");
}

TEST(HmacTest, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  EXPECT_EQ(DigestToHex(HmacSha256(Bytes(key), Bytes(msg))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyHashedDown) {
  const std::string key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(DigestToHex(HmacSha256(Bytes(key), Bytes(msg))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(BigUintTest, HexRoundTrip) {
  const BigUint v = BigUint::FromHex("deadbeefcafebabe0123456789");
  EXPECT_EQ(v.ToHex(), "deadbeefcafebabe0123456789");
}

TEST(BigUintTest, ZeroProperties) {
  BigUint z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.ToHex(), "0");
  EXPECT_FALSE(z.IsOdd());
}

TEST(BigUintTest, BytesRoundTrip) {
  const BigUint v = BigUint::FromHex("0102030405060708090a");
  const auto bytes = v.ToBytes();
  EXPECT_EQ(bytes.size(), 10u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(BigUint::FromBytes(bytes), v);
}

TEST(BigUintTest, PaddedBytes) {
  const BigUint v(0x1234);
  const auto padded = v.ToBytesPadded(8);
  EXPECT_EQ(padded.size(), 8u);
  EXPECT_EQ(padded[6], 0x12);
  EXPECT_EQ(padded[7], 0x34);
  EXPECT_EQ(padded[0], 0x00);
}

TEST(BigUintTest, AddSubCarryChains) {
  const BigUint a = BigUint::FromHex("ffffffffffffffffffffffff");
  const BigUint one(1);
  const BigUint sum = BigUint::Add(a, one);
  EXPECT_EQ(sum.ToHex(), "1000000000000000000000000");
  EXPECT_EQ(BigUint::Sub(sum, one), a);
}

TEST(BigUintTest, MulKnownProduct) {
  const BigUint a = BigUint::FromHex("ffffffff");
  const BigUint b = BigUint::FromHex("ffffffff");
  EXPECT_EQ(BigUint::Mul(a, b).ToHex(), "fffffffe00000001");
}

TEST(BigUintTest, DivModBasics) {
  BigUint q, r;
  BigUint::DivMod(BigUint(100), BigUint(7), &q, &r);
  EXPECT_EQ(q.ToU64(), 14u);
  EXPECT_EQ(r.ToU64(), 2u);
}

TEST(BigUintTest, DivModSmallerDividend) {
  BigUint q, r;
  BigUint::DivMod(BigUint(3), BigUint(10), &q, &r);
  EXPECT_TRUE(q.IsZero());
  EXPECT_EQ(r.ToU64(), 3u);
}

// Randomized cross-check of multi-limb arithmetic against __int128 where the
// operands fit.
TEST(BigUintTest, RandomizedArithmeticAgainstNative) {
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t x = rng.NextU64() >> 1;
    const uint64_t y = (rng.NextU64() >> 1) | 1;  // nonzero
    const BigUint bx(x);
    const BigUint by(y);
    EXPECT_EQ(BigUint::Add(bx, by).ToU64(), x + y);
    if (x >= y) {
      EXPECT_EQ(BigUint::Sub(bx, by).ToU64(), x - y);
    }
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(y);
    const BigUint bprod = BigUint::Mul(bx, by);
    BigUint q, r;
    BigUint::DivMod(bprod, by, &q, &r);
    EXPECT_EQ(q.ToU64(), static_cast<uint64_t>(prod / y));
    EXPECT_TRUE(r.IsZero());
    EXPECT_EQ(BigUint::Mod(bx, by).ToU64(), x % y);
  }
}

TEST(BigUintTest, RandomizedDivModInvariant) {
  // For random big operands: a == q*b + r and r < b.
  Rng rng(78);
  for (int i = 0; i < 200; ++i) {
    const BigUint a = BigUint::RandomWithBits(256, rng);
    const BigUint b = BigUint::RandomWithBits(96 + i % 64, rng);
    BigUint q, r;
    BigUint::DivMod(a, b, &q, &r);
    EXPECT_TRUE(r < b);
    EXPECT_EQ(BigUint::Add(BigUint::Mul(q, b), r), a);
  }
}

TEST(BigUintTest, ShiftRoundTrip) {
  const BigUint v = BigUint::FromHex("123456789abcdef");
  for (size_t shift : {1u, 7u, 31u, 32u, 33u, 100u}) {
    EXPECT_EQ(v.ShiftLeft(shift).ShiftRight(shift), v) << shift;
  }
}

TEST(BigUintTest, PowModFermat) {
  // Fermat's little theorem: a^(p-1) = 1 mod p for prime p, a not divisible.
  const BigUint p(1000003);
  for (uint64_t a : {2ull, 17ull, 65537ull, 999999ull}) {
    EXPECT_EQ(
        BigUint::PowMod(BigUint(a), BigUint::Sub(p, BigUint(1)), p).ToU64(),
        1u)
        << a;
  }
}

// Modulo 1 every value is 0, an empty product included: both ladders must
// reduce their starting 1, or x^0 mod 1 comes back as 1.
TEST(BigUintTest, PowModModulusOneIsZero) {
  const BigUint one(1);
  for (uint64_t e : {0ull, 1ull, 2ull, 65537ull}) {
    EXPECT_TRUE(BigUint::PowMod(BigUint(5), BigUint(e), one).IsZero()) << e;
    EXPECT_TRUE(BigUint::PowModReference(BigUint(5), BigUint(e), one).IsZero())
        << e;
  }
}

// x^e mod m in native arithmetic, for m < 2^32: an oracle independent of
// both BigUint ladders.
uint64_t NativePowMod(uint64_t x, uint64_t e, uint64_t m) {
  uint64_t result = 1 % m;
  x %= m;
  for (; e != 0; e >>= 1) {
    if (e & 1) {
      result = result * x % m;
    }
    x = x * x % m;
  }
  return result;
}

TEST(BigUintTest, PowModMatchesNativeOnSmallModuli) {
  Rng rng(0x4d4f01);
  for (int i = 0; i < 400; ++i) {
    // Odd and even moduli from 1 up to 32 bits.
    const uint64_t m = 1 + rng.NextBounded(uint64_t{1} << (1 + i % 32));
    const uint64_t x = rng.NextU64();
    const uint64_t e = rng.NextBounded(1u << (i % 20));
    EXPECT_EQ(BigUint::PowMod(BigUint(x), BigUint(e), BigUint(m)).ToU64(),
              NativePowMod(x, e, m))
        << x << "^" << e << " mod " << m;
  }
}

// The oracle contract of the Montgomery path: PowMod equals
// PowModReference for odd moduli of every limb count up to
// kMontgomeryMaxBits, on edge bases (0, 1, m-1, m, m+1, wider than the
// Montgomery limbs) and edge exponents (0, 1, all ones, full width). Even
// and wider moduli take the reference path and must agree too.
TEST(BigUintTest, PowModMatchesReferenceOverRandomModuli) {
  Rng rng(0x4d4f02);
  std::vector<size_t> sizes = {2,   3,   31,  32,  33,  63,  64,   65,
                               127, 128, 129, 255, 256, 257, 384,  511,
                               512, 513, 767, 768, 769, 1023, 1024, 1025,
                               1535, 1536};
  for (int i = 0; i < 12; ++i) {
    sizes.push_back(2 + rng.NextBounded(BigUint::kMontgomeryMaxBits - 1));
  }
  const BigUint one(1);
  std::vector<BigUint> moduli;
  for (const size_t bits : sizes) {
    BigUint m = BigUint::RandomWithBits(bits, rng);
    if (!m.IsOdd()) {
      m = BigUint::Add(m, one);  // even, so no carry out of `bits`
    }
    ASSERT_EQ(m.BitLength(), bits);
    moduli.push_back(m);
  }
  // Moduli whose top limb is all ones, like the MODP prime's, push the
  // CIOS row's carries to their largest.
  for (const size_t bits : {2u, 64u, 128u, 768u, 1536u}) {
    moduli.push_back(BigUint::Sub(one.ShiftLeft(bits), one));
  }
  moduli.push_back(Modp1536Group().p);
  for (const BigUint& m : moduli) {
    const size_t bits = m.BitLength();
    // Wide exponents only on narrow moduli, so the reference stays cheap.
    const size_t exp_bits = bits <= 512 ? bits : 160;
    const std::vector<BigUint> bases = {
        BigUint(),
        one,
        BigUint::Sub(m, one),
        m,
        BigUint::Add(m, one),
        BigUint::RandomInRange(BigUint(), BigUint::Sub(m, one), rng),
        BigUint::RandomWithBits(bits + 17, rng),
        BigUint::RandomWithBits(BigUint::kMontgomeryMaxBits + 64, rng)};
    const std::vector<BigUint> exps = {
        BigUint(), one, BigUint(2), BigUint(65537),
        BigUint::Sub(one.ShiftLeft(exp_bits), one),
        BigUint::RandomWithBits(exp_bits, rng)};
    for (size_t b = 0; b < bases.size(); ++b) {
      for (size_t e = 0; e < exps.size(); ++e) {
        ASSERT_EQ(BigUint::PowMod(bases[b], exps[e], m),
                  BigUint::PowModReference(bases[b], exps[e], m))
            << bits << "-bit m=" << m.ToHex() << " base #" << b << " exp #"
            << e;
      }
    }
  }
  // m = 1, and even moduli, which PowMod hands to the reference.
  const BigUint x = BigUint::RandomWithBits(300, rng);
  const BigUint e = BigUint::RandomWithBits(200, rng);
  EXPECT_TRUE(BigUint::PowMod(x, e, one).IsZero());
  for (size_t bits : {2u, 64u, 65u, 512u, 1536u}) {
    const BigUint even = BigUint::RandomWithBits(bits, rng).ShiftRight(1)
                             .ShiftLeft(1);
    ASSERT_FALSE(even.IsOdd());
    EXPECT_EQ(BigUint::PowMod(x, e, even),
              BigUint::PowModReference(x, e, even))
        << bits;
  }
  // An odd modulus one limb wider than the Montgomery arrays.
  const BigUint wide = BigUint::Add(
      BigUint::RandomWithBits(BigUint::kMontgomeryMaxBits + 1, rng)
          .ShiftRight(1)
          .ShiftLeft(1),
      one);
  EXPECT_EQ(BigUint::PowMod(x, e, wide), BigUint::PowModReference(x, e, wide));
}

TEST(BigUintTest, InvModMatchesDefinition) {
  Rng rng(79);
  const BigUint m(1000003);  // prime modulus: everything nonzero invertible
  for (int i = 0; i < 100; ++i) {
    const BigUint a(1 + rng.NextBounded(1000002));
    BigUint inv;
    ASSERT_TRUE(BigUint::InvMod(a, m, &inv));
    EXPECT_EQ(BigUint::MulMod(a, inv, m).ToU64(), 1u);
  }
}

TEST(BigUintTest, InvModRejectsNonCoprime) {
  BigUint inv;
  EXPECT_FALSE(BigUint::InvMod(BigUint(6), BigUint(9), &inv));
}

TEST(BigUintTest, MillerRabinKnownPrimesAndComposites) {
  Rng rng(80);
  for (uint64_t p : {2ull, 3ull, 5ull, 104729ull, 1000003ull, 2147483647ull}) {
    EXPECT_TRUE(BigUint::IsProbablePrime(BigUint(p), 20, rng)) << p;
  }
  for (uint64_t c : {1ull, 4ull, 100ull, 104730ull, 561ull, 41041ull}) {
    // 561 and 41041 are Carmichael numbers.
    EXPECT_FALSE(BigUint::IsProbablePrime(BigUint(c), 20, rng)) << c;
  }
}

TEST(BigUintTest, GeneratePrimeHasExactBitsAndIsPrime) {
  Rng rng(81);
  const BigUint p = BigUint::GeneratePrime(96, rng);
  EXPECT_EQ(p.BitLength(), 96u);
  EXPECT_TRUE(BigUint::IsProbablePrime(p, 30, rng));
}

// Two primes of exactly 256 bits multiply to 511 or 512 bits; seed 0x6e3d02
// is a pinned 511-bit case.
TEST(RsaTest, ModulusHasModulusBitsOrOneFewer) {
  Rng short_rng(0x6e3d02);
  EXPECT_EQ(GenerateRsaKeyPair(512, short_rng).public_key.n.BitLength(), 511u);
  bool saw_full_width = false;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const size_t bits = GenerateRsaKeyPair(512, rng).public_key.n.BitLength();
    EXPECT_TRUE(bits == 511 || bits == 512) << "seed " << seed << ": " << bits;
    saw_full_width |= bits == 512;
  }
  EXPECT_TRUE(saw_full_width);
}

TEST(RsaTest, SignVerifyRoundTrip) {
  Rng rng(42);
  const RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
  const std::string msg = "attest me";
  const auto sig = RsaSign(kp.private_key, Bytes(msg));
  EXPECT_EQ(sig.size(), kp.public_key.ModulusBytes());
  EXPECT_TRUE(RsaVerify(kp.public_key, Bytes(msg), sig));
}

TEST(RsaTest, TamperedSignatureRejected) {
  Rng rng(43);
  const RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
  const std::string msg = "attest me";
  auto sig = RsaSign(kp.private_key, Bytes(msg));
  sig[10] ^= 0x40;
  EXPECT_FALSE(RsaVerify(kp.public_key, Bytes(msg), sig));
}

TEST(RsaTest, TamperedMessageRejected) {
  Rng rng(44);
  const RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
  const auto sig = RsaSign(kp.private_key, Bytes(std::string("hello")));
  EXPECT_FALSE(RsaVerify(kp.public_key, Bytes(std::string("hellp")), sig));
}

TEST(RsaTest, WrongKeyRejected) {
  Rng rng(45);
  const RsaKeyPair kp1 = GenerateRsaKeyPair(512, rng);
  const RsaKeyPair kp2 = GenerateRsaKeyPair(512, rng);
  const auto sig = RsaSign(kp1.private_key, Bytes(std::string("msg")));
  EXPECT_FALSE(RsaVerify(kp2.public_key, Bytes(std::string("msg")), sig));
}

TEST(RsaTest, DigestInterfaceMatchesMessageInterface) {
  Rng rng(46);
  const RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
  const std::string msg = "digest path";
  const auto sig1 = RsaSign(kp.private_key, Bytes(msg));
  const auto sig2 = RsaSignDigest(kp.private_key, Sha256::Hash(Bytes(msg)));
  EXPECT_EQ(sig1, sig2);
  EXPECT_TRUE(RsaVerifyDigest(kp.public_key, Sha256::Hash(Bytes(msg)), sig1));
}

// EMSA-PKCS1-v1_5 over SHA-256 (RFC 8017 §9.2), written out here
// independently of rsa.cc, as the integer a signature exponentiates.
BigUint EmsaInteger(const Sha256Digest& digest, size_t k) {
  static constexpr uint8_t kDigestInfo[] = {
      0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
      0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};
  std::vector<uint8_t> em = {0x00, 0x01};
  em.resize(k - sizeof(kDigestInfo) - digest.size() - 1, 0xff);
  em.push_back(0x00);
  em.insert(em.end(), std::begin(kDigestInfo), std::end(kDigestInfo));
  em.insert(em.end(), digest.begin(), digest.end());
  return BigUint::FromBytes(em);
}

// The same key with its factors swapped: CRT signing must not depend on
// which prime is larger.
RsaPrivateKey WithFactorsSwapped(const RsaPrivateKey& key) {
  RsaPrivateKey swapped = key;
  std::swap(swapped.p, swapped.q);
  std::swap(swapped.dp, swapped.dq);
  EXPECT_TRUE(BigUint::InvMod(swapped.q, swapped.p, &swapped.qinv));
  return swapped;
}

// Signing runs two half-width exponentiations and Garner's recombination;
// the result must be m^d mod n as the reference ladder computes it, for
// either order of the factors.
TEST(RsaTest, CrtSignatureMatchesPrivateExponent) {
  Rng rng(0x4b4105);
  const BigUint one(1);
  // Signatures whose s_q = m^dq mod q is not below p, so the recombination
  // must reduce it mod p first; only possible when q > p.
  int s_q_reduced = 0;
  for (const size_t bits : {512u, 768u}) {
    const RsaKeyPair kp = GenerateRsaKeyPair(bits, rng);
    const size_t k = kp.public_key.ModulusBytes();
    for (const RsaPrivateKey& key :
         {kp.private_key, WithFactorsSwapped(kp.private_key)}) {
      EXPECT_EQ(BigUint::Mul(key.p, key.q), key.n);
      EXPECT_EQ(key.dp, BigUint::Mod(key.d, BigUint::Sub(key.p, one)));
      EXPECT_EQ(key.dq, BigUint::Mod(key.d, BigUint::Sub(key.q, one)));
      EXPECT_EQ(BigUint::MulMod(key.qinv, key.q, key.p), one);
      for (int i = 0; i < 8; ++i) {
        const Sha256Digest digest = Sha256::Hash(
            Bytes("crt-" + std::to_string(bits) + "-" + std::to_string(i)));
        const BigUint m = EmsaInteger(digest, k);
        const std::vector<uint8_t> sig = RsaSignDigest(key, digest);
        ASSERT_EQ(sig.size(), k);
        EXPECT_EQ(BigUint::FromBytes(sig),
                  BigUint::PowModReference(m, key.d, key.n))
            << bits << "-bit key, message " << i;
        s_q_reduced += BigUint::PowModReference(m, key.dq, key.q) >= key.p;
      }
    }
  }
  EXPECT_GT(s_q_reduced, 0);
}

std::string HashHex(const BigUint& v) {
  const std::vector<uint8_t> bytes = v.ToBytes();
  return DigestToHex(Sha256::Hash(bytes));
}

// Known answers recorded from the Mul/DivMod implementation before the
// Montgomery ladder and CRT signing went in: key generation (its primes
// come from Miller-Rabin over PowMod), the Rng position after it, and
// PKCS#1 v1.5 signatures, which are deterministic, must all be
// byte-identical to what that code produced.
TEST(RsaTest, KnownAnswerKeysAndSignatures) {
  struct Pin {
    size_t bits;
    uint64_t seed;
    const char* n_sha;
    const char* d_sha;
    uint64_t next_draw;
    const char* sig_sha;
  };
  const Pin pins[] = {
      {512, 0x4b4101,
       "e87e48937aebb4b2f45633c9b429d14a01891981264e4aa908953af80721bf44",
       "088b9d69e1469c0c3f938b477b6785fb8a116903fa958bd3bc3f3765d42c66a7",
       0x6f13dd5c63e85716ull,
       "e282bd8266e5a57e87d219b9720455f25f058a1ecbd7a43c1a28a459d0580d77"},
      {768, 0x4b4102,
       "895a20d14893aa4d7d13bc937dd309a8c5059cc7fb3a37ea323ecb774f1c9d0e",
       "ea79f92aa20e676e17c0b945e2349de233ee3a223c5601ea365505512b7a0be7",
       0x9764f067f9bd45edull,
       "98ff7c00dec558e9a8c4a2dd1b84c6adbf2df45d6f0f91424bfec4d8b0f8b0e8"},
  };
  for (const Pin& pin : pins) {
    Rng rng(pin.seed);
    const RsaKeyPair kp = GenerateRsaKeyPair(pin.bits, rng);
    EXPECT_EQ(kp.public_key.n.BitLength(), pin.bits);
    EXPECT_EQ(HashHex(kp.public_key.n), pin.n_sha) << pin.bits;
    EXPECT_EQ(HashHex(kp.private_key.d), pin.d_sha) << pin.bits;
    EXPECT_EQ(rng.NextU64(), pin.next_draw) << pin.bits;
    const std::vector<uint8_t> sig = RsaSignDigest(
        kp.private_key,
        Sha256::Hash(Bytes("snic-kat-" + std::to_string(pin.bits))));
    EXPECT_EQ(DigestToHex(Sha256::Hash(sig)), pin.sig_sha) << pin.bits;
  }
}

void ExpectSameKeyPair(const RsaKeyPair& a, const RsaKeyPair& b) {
  EXPECT_TRUE(a.public_key.n == b.public_key.n);
  EXPECT_TRUE(a.public_key.e == b.public_key.e);
  EXPECT_TRUE(a.private_key.n == b.private_key.n);
  EXPECT_TRUE(a.private_key.d == b.private_key.d);
  EXPECT_TRUE(a.private_key.p == b.private_key.p);
  EXPECT_TRUE(a.private_key.q == b.private_key.q);
  EXPECT_TRUE(a.private_key.dp == b.private_key.dp);
  EXPECT_TRUE(a.private_key.dq == b.private_key.dq);
  EXPECT_TRUE(a.private_key.qinv == b.private_key.qinv);
}

TEST(RsaKeyGenMemoTest, SameSeedSameKeyAndSameLaterDraws) {
  // The seed is used nowhere else in this binary, so the first call
  // generates and the second is answered by the memo.
  Rng first_rng(0x6e3d01);
  Rng second_rng(0x6e3d01);
  const RsaKeyPair first = GenerateRsaKeyPair(512, first_rng);
  const RsaKeyPair second = GenerateRsaKeyPair(512, second_rng);
  ExpectSameKeyPair(first, second);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(first_rng.NextU64(), second_rng.NextU64()) << "draw " << i;
  }
  // A hit still hands back a working key.
  const auto sig = RsaSign(second.private_key, Bytes(std::string("memo")));
  EXPECT_TRUE(RsaVerify(second.public_key, Bytes(std::string("memo")), sig));
}

TEST(RsaKeyGenMemoTest, DifferentSeedOrSizeDifferentKey) {
  Rng a(0x6e3d02);
  Rng b(0x6e3d03);
  Rng c(0x6e3d02);
  const RsaKeyPair from_a = GenerateRsaKeyPair(512, a);
  const RsaKeyPair from_b = GenerateRsaKeyPair(512, b);
  const RsaKeyPair from_c = GenerateRsaKeyPair(768, c);
  EXPECT_FALSE(from_a.public_key.n == from_b.public_key.n);
  // Same Rng state, other size: the size is part of the memo's key.
  EXPECT_GT(from_c.public_key.n.BitLength(), 700u);
  EXPECT_LT(from_a.public_key.n.BitLength(), 513u);
}

TEST(RsaKeyGenMemoTest, ConcurrentGenerationsAgree) {
  constexpr uint64_t kSeed = 0x6e3d04;
  struct Generated {
    RsaKeyPair pair;
    uint64_t next_draw;
  };
  runtime::ThreadPool pool(4);
  std::vector<std::future<Generated>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool.Submit([] {
      Rng rng(kSeed);
      Generated out{GenerateRsaKeyPair(512, rng), 0};
      out.next_draw = rng.NextU64();
      return out;
    }));
  }
  const Generated first = futures[0].get();
  for (size_t i = 1; i < futures.size(); ++i) {
    const Generated other = futures[i].get();
    ExpectSameKeyPair(first.pair, other.pair);
    EXPECT_EQ(first.next_draw, other.next_draw) << "worker " << i;
  }
}

TEST(DhTest, SharedSecretAgrees) {
  Rng rng(47);
  const DhGroup group = SmallTestGroup();
  DhParticipant alice(group, rng);
  DhParticipant bob(group, rng);
  EXPECT_EQ(alice.ComputeSharedSecret(bob.public_value()),
            bob.ComputeSharedSecret(alice.public_value()));
  EXPECT_EQ(alice.DeriveChannelKey(bob.public_value()),
            bob.DeriveChannelKey(alice.public_value()));
}

TEST(DhTest, DistinctParticipantsDistinctKeys) {
  Rng rng(48);
  const DhGroup group = SmallTestGroup();
  DhParticipant alice(group, rng);
  DhParticipant bob(group, rng);
  DhParticipant eve(group, rng);
  EXPECT_NE(alice.DeriveChannelKey(bob.public_value()),
            alice.DeriveChannelKey(eve.public_value()));
}

TEST(DhTest, TestGroupPrimeIsPrime) {
  Rng rng(49);
  EXPECT_TRUE(BigUint::IsProbablePrime(SmallTestGroup().p, 30, rng));
  EXPECT_EQ(SmallTestGroup().p.BitLength(), 256u);
}

// Known answers recorded from the Mul/DivMod ladder: the fixed group's
// prime and public values over it and over the 1536-bit MODP group, the
// widest modulus the Montgomery path takes.
TEST(DhTest, KnownAnswerPublicValues) {
  EXPECT_EQ(SmallTestGroup().p.ToHex(),
            "9ba5209e7f1c949f5f468090af4350b4c57de545ca617f6fe281b3a40d3d5d23");
  Rng small_rng(0x4b4104);
  EXPECT_EQ(DhParticipant(SmallTestGroup(), small_rng).public_value().ToHex(),
            "64d7e562be9553ab161a19e83b557e6bf3bcae80142d63635ff87f7de3d253f6");
  Rng modp_rng(0x4b4103);
  EXPECT_EQ(
      HashHex(DhParticipant(Modp1536Group(), modp_rng).public_value()),
      "c17c804b9b31381282be0cef4384cf1608cb669a10d551b5a79be8b2b79e6694");
}

TEST(DhTest, Modp1536GroupShape) {
  const DhGroup g = Modp1536Group();
  EXPECT_EQ(g.p.BitLength(), 1536u);
  EXPECT_EQ(g.g.ToU64(), 2u);
  EXPECT_TRUE(g.p.IsOdd());
}

TEST(KeysTest, CertificateChainVerifies) {
  Rng rng(50);
  VendorAuthority vendor(512, rng);
  NicRootOfTrust rot(vendor, 512, rng);
  EXPECT_TRUE(VendorAuthority::VerifyCertificate(vendor.public_key(),
                                                 rot.ek_certificate()));
  EXPECT_TRUE(NicRootOfTrust::VerifyAkChain(
      vendor.public_key(), rot.ek_certificate(), rot.ak_public(),
      std::span<const uint8_t>(rot.ak_endorsement().data(),
                               rot.ak_endorsement().size())));
}

TEST(KeysTest, WrongVendorRejected) {
  Rng rng(51);
  VendorAuthority vendor(512, rng);
  VendorAuthority other(512, rng);
  NicRootOfTrust rot(vendor, 512, rng);
  EXPECT_FALSE(NicRootOfTrust::VerifyAkChain(
      other.public_key(), rot.ek_certificate(), rot.ak_public(),
      std::span<const uint8_t>(rot.ak_endorsement().data(),
                               rot.ak_endorsement().size())));
}

TEST(KeysTest, ForeignAkRejected) {
  Rng rng(52);
  VendorAuthority vendor(512, rng);
  NicRootOfTrust rot1(vendor, 512, rng);
  NicRootOfTrust rot2(vendor, 512, rng);
  // rot2's AK presented with rot1's endorsement must fail.
  EXPECT_FALSE(NicRootOfTrust::VerifyAkChain(
      vendor.public_key(), rot1.ek_certificate(), rot2.ak_public(),
      std::span<const uint8_t>(rot1.ak_endorsement().data(),
                               rot1.ak_endorsement().size())));
}

TEST(KeysTest, AkSignsPayloads) {
  Rng rng(53);
  VendorAuthority vendor(512, rng);
  NicRootOfTrust rot(vendor, 512, rng);
  const std::string payload = "quote-payload";
  const auto sig = rot.SignWithAk(Bytes(payload));
  EXPECT_TRUE(RsaVerify(rot.ak_public(), Bytes(payload), sig));
}

}  // namespace
}  // namespace snic::crypto
