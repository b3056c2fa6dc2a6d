// Tests for the from-scratch crypto substrate: SHA-256 against FIPS vectors
// and against its scalar compression function as the oracle for the SHA-NI
// one, HMAC against RFC 4231, big-integer arithmetic (including randomized
// cross-checks against native 64-bit math), RSA sign/verify and the
// key-generation memo, Diffie-Hellman, and the endorsement/attestation key
// chain.

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <string>
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

void ExpectSameKeyPair(const RsaKeyPair& a, const RsaKeyPair& b) {
  EXPECT_TRUE(a.public_key.n == b.public_key.n);
  EXPECT_TRUE(a.public_key.e == b.public_key.e);
  EXPECT_TRUE(a.private_key.n == b.private_key.n);
  EXPECT_TRUE(a.private_key.d == b.private_key.d);
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
