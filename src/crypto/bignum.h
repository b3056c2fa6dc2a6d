// Arbitrary-precision unsigned integers, from scratch.
//
// This is the arithmetic substrate for the attestation protocol: classic
// Diffie-Hellman (modular exponentiation over a prime) and RSA signatures
// (Appendix A). Values live in heap vectors of 32-bit limbs. Modular
// exponentiation, the one operation the control plane pays for on every
// launch, has a fast path: for an odd modulus of at most
// kMontgomeryMaxBits bits, PowMod runs a 4-bit fixed-window ladder of CIOS
// Montgomery multiplications over 64-bit limbs in fixed stack arrays, with
// no allocation inside the ladder. PowModReference, the plain Mul/DivMod
// square-and-multiply ladder, is its oracle (the tests hold the two equal)
// and serves every even or wider modulus. Reported timings still come from
// the paper's co-processor latency model (Fig. 6), not from this code.

#ifndef SNIC_CRYPTO_BIGNUM_H_
#define SNIC_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"

namespace snic::crypto {

// Unsigned big integer stored little-endian in 32-bit limbs.
class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(uint64_t value);

  // Parses a hex string (no 0x prefix needed; case-insensitive). Aborts on
  // malformed input — hex literals in this codebase are compile-time data.
  static BigUint FromHex(std::string_view hex);

  // Big-endian byte-string conversions (network/wire format).
  static BigUint FromBytes(std::span<const uint8_t> be_bytes);
  std::vector<uint8_t> ToBytes() const;
  // Fixed-width big-endian rendering, left-padded with zeros; aborts if the
  // value does not fit.
  std::vector<uint8_t> ToBytesPadded(size_t width) const;

  std::string ToHex() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  // Number of significant bits (0 for zero).
  size_t BitLength() const;
  bool GetBit(size_t i) const;

  // Comparisons.
  static int Compare(const BigUint& a, const BigUint& b);
  friend bool operator==(const BigUint& a, const BigUint& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator<(const BigUint& a, const BigUint& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const BigUint& a, const BigUint& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const BigUint& a, const BigUint& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const BigUint& a, const BigUint& b) {
    return Compare(a, b) >= 0;
  }

  // Arithmetic. Sub aborts if b > a (unsigned domain).
  static BigUint Add(const BigUint& a, const BigUint& b);
  static BigUint Sub(const BigUint& a, const BigUint& b);
  static BigUint Mul(const BigUint& a, const BigUint& b);
  // Quotient and remainder; aborts on division by zero.
  static void DivMod(const BigUint& a, const BigUint& b, BigUint* quotient,
                     BigUint* remainder);
  static BigUint Mod(const BigUint& a, const BigUint& m);

  // (a * b) mod m.
  static BigUint MulMod(const BigUint& a, const BigUint& b, const BigUint& m);

  // The widest modulus PowMod's Montgomery path takes: the 1536-bit RFC 3526
  // group, the widest modulus in the tree.
  static constexpr size_t kMontgomeryMaxBits = 1536;
  // (base ^ exp) mod m; aborts if m is zero. An odd m of at most
  // kMontgomeryMaxBits bits takes the Montgomery ladder, any other m
  // PowModReference. Both return 0 when m is 1, whatever the exponent.
  static BigUint PowMod(const BigUint& base, const BigUint& exp,
                        const BigUint& m);
  // Right-to-left square-and-multiply over Mul and DivMod: PowMod's oracle.
  static BigUint PowModReference(const BigUint& base, const BigUint& exp,
                                 const BigUint& m);

  // Modular inverse via extended Euclid; returns false if gcd(a, m) != 1.
  static bool InvMod(const BigUint& a, const BigUint& m, BigUint* inverse);

  // Shifts.
  BigUint ShiftLeft(size_t bits) const;
  BigUint ShiftRight(size_t bits) const;

  // Uniform random value with exactly `bits` significant bits (MSB set).
  static BigUint RandomWithBits(size_t bits, Rng& rng);
  // Uniform random value in [lo, hi].
  static BigUint RandomInRange(const BigUint& lo, const BigUint& hi, Rng& rng);

  // Miller-Rabin primality test with `rounds` random bases.
  static bool IsProbablePrime(const BigUint& n, int rounds, Rng& rng);
  // Generates a random probable prime with exactly `bits` bits.
  static BigUint GeneratePrime(size_t bits, Rng& rng);

  uint64_t ToU64() const;  // aborts if the value exceeds 64 bits

  const std::vector<uint32_t>& limbs() const { return limbs_; }

 private:
  void Trim();

  std::vector<uint32_t> limbs_;  // little-endian, no trailing zero limbs
};

}  // namespace snic::crypto

#endif  // SNIC_CRYPTO_BIGNUM_H_
