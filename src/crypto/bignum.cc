#include "src/crypto/bignum.h"

#include <algorithm>
#include <array>
#include <cctype>

#include "src/common/status.h"

namespace snic::crypto {

BigUint::BigUint(uint64_t value) {
  if (value != 0) {
    limbs_.push_back(static_cast<uint32_t>(value));
    const auto hi = static_cast<uint32_t>(value >> 32);
    if (hi != 0) {
      limbs_.push_back(hi);
    }
  }
}

void BigUint::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

BigUint BigUint::FromHex(std::string_view hex) {
  if (hex.substr(0, 2) == "0x" || hex.substr(0, 2) == "0X") {
    hex.remove_prefix(2);
  }
  BigUint out;
  for (char c : hex) {
    if (c == '_' || std::isspace(static_cast<unsigned char>(c))) {
      continue;
    }
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint32_t>(c - 'A' + 10);
    } else {
      SNIC_CHECK(false && "malformed hex literal");
      return out;
    }
    // out = out * 16 + digit
    uint64_t carry = digit;
    for (auto& limb : out.limbs_) {
      const uint64_t v = (static_cast<uint64_t>(limb) << 4) | carry;
      limb = static_cast<uint32_t>(v);
      carry = v >> 32;
    }
    if (carry != 0) {
      out.limbs_.push_back(static_cast<uint32_t>(carry));
    }
  }
  out.Trim();
  return out;
}

BigUint BigUint::FromBytes(std::span<const uint8_t> be_bytes) {
  BigUint out;
  const size_t n = be_bytes.size();
  out.limbs_.assign((n + 3) / 4, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t byte = be_bytes[n - 1 - i];  // little-endian position i
    out.limbs_[i / 4] |= static_cast<uint32_t>(byte) << (8 * (i % 4));
  }
  out.Trim();
  return out;
}

std::vector<uint8_t> BigUint::ToBytes() const {
  if (IsZero()) {
    return {0};
  }
  std::vector<uint8_t> out;
  const size_t bytes = (BitLength() + 7) / 8;
  out.resize(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    const uint32_t limb = limbs_[i / 4];
    out[bytes - 1 - i] = static_cast<uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

std::vector<uint8_t> BigUint::ToBytesPadded(size_t width) const {
  std::vector<uint8_t> raw = ToBytes();
  if (raw.size() == 1 && raw[0] == 0) {
    raw.clear();
  }
  SNIC_CHECK(raw.size() <= width);
  std::vector<uint8_t> out(width - raw.size(), 0);
  out.insert(out.end(), raw.begin(), raw.end());
  return out;
}

std::string BigUint::ToHex() const {
  if (IsZero()) {
    return "0";
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kHex[(limbs_[i] >> shift) & 0xf]);
    }
  }
  const size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

size_t BigUint::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  const uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  return bits + (32 - static_cast<size_t>(__builtin_clz(top)));
}

bool BigUint::GetBit(size_t i) const {
  const size_t limb = i / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 32)) & 1u;
}

int BigUint::Compare(const BigUint& a, const BigUint& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUint BigUint::Add(const BigUint& a, const BigUint& b) {
  BigUint out;
  const size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) {
      sum += a.limbs_[i];
    }
    if (i < b.limbs_.size()) {
      sum += b.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(carry));
  }
  return out;
}

BigUint BigUint::Sub(const BigUint& a, const BigUint& b) {
  SNIC_CHECK(Compare(a, b) >= 0);
  BigUint out;
  out.limbs_.resize(a.limbs_.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) {
      diff -= b.limbs_[i];
    }
    if (diff < 0) {
      diff += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Trim();
  return out;
}

BigUint BigUint::Mul(const BigUint& a, const BigUint& b) {
  if (a.IsZero() || b.IsZero()) {
    return BigUint();
  }
  BigUint out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      const uint64_t cur = static_cast<uint64_t>(out.limbs_[i + j]) +
                           static_cast<uint64_t>(a.limbs_[i]) * b.limbs_[j] +
                           carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      const uint64_t cur = static_cast<uint64_t>(out.limbs_[k]) + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

void BigUint::DivMod(const BigUint& a, const BigUint& b, BigUint* quotient,
                     BigUint* remainder) {
  SNIC_CHECK(!b.IsZero());
  if (Compare(a, b) < 0) {
    if (quotient != nullptr) {
      *quotient = BigUint();
    }
    if (remainder != nullptr) {
      *remainder = a;
    }
    return;
  }

  // Single-limb divisor: schoolbook short division.
  if (b.limbs_.size() == 1) {
    const uint64_t divisor = b.limbs_[0];
    BigUint q;
    q.limbs_.assign(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      const uint64_t cur = (rem << 32) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    q.Trim();
    if (quotient != nullptr) {
      *quotient = std::move(q);
    }
    if (remainder != nullptr) {
      *remainder = BigUint(rem);
    }
    return;
  }

  // Knuth Algorithm D (TAOCP vol. 2, 4.3.1) on 32-bit limbs.
  const size_t n = b.limbs_.size();
  const size_t m = a.limbs_.size();
  const int shift = __builtin_clz(b.limbs_.back());

  // Normalized copies: v has its top bit set; u gains one extra high limb.
  std::vector<uint32_t> v(n);
  for (size_t i = n; i-- > 0;) {
    uint64_t x = static_cast<uint64_t>(b.limbs_[i]) << shift;
    if (shift != 0 && i > 0) {
      x |= b.limbs_[i - 1] >> (32 - shift);
    }
    v[i] = static_cast<uint32_t>(x);
  }
  std::vector<uint32_t> u(m + 1, 0);
  for (size_t i = m; i-- > 0;) {
    uint64_t x = static_cast<uint64_t>(a.limbs_[i]) << shift;
    if (shift != 0 && i > 0) {
      x |= a.limbs_[i - 1] >> (32 - shift);
    }
    u[i] = static_cast<uint32_t>(x);
  }
  if (shift != 0) {
    u[m] = a.limbs_.back() >> (32 - shift);
  }

  constexpr uint64_t kBase = 1ULL << 32;
  BigUint q;
  q.limbs_.assign(m - n + 1, 0);
  for (size_t j = m - n + 1; j-- > 0;) {
    const uint64_t top = (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = top / v[n - 1];
    uint64_t rhat = top % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) {
        break;
      }
    }
    // u[j .. j+n] -= qhat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      const int64_t sub = static_cast<int64_t>(u[i + j]) -
                          static_cast<int64_t>(product & 0xffffffffULL) -
                          borrow;
      u[i + j] = static_cast<uint32_t>(sub);
      borrow = (sub < 0) ? 1 : 0;
    }
    const int64_t sub = static_cast<int64_t>(u[j + n]) -
                        static_cast<int64_t>(carry) - borrow;
    u[j + n] = static_cast<uint32_t>(sub);

    if (sub < 0) {
      // qhat was one too large: add v back.
      --qhat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t s = static_cast<uint64_t>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<uint32_t>(s);
        add_carry = s >> 32;
      }
      u[j + n] = static_cast<uint32_t>(u[j + n] + add_carry);
    }
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }
  q.Trim();

  if (remainder != nullptr) {
    // Denormalize u[0 .. n-1].
    BigUint r;
    r.limbs_.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      uint64_t x = u[i] >> shift;
      if (shift != 0 && i + 1 < n + 1) {
        x |= static_cast<uint64_t>(u[i + 1]) << (32 - shift);
      }
      r.limbs_[i] = static_cast<uint32_t>(x);
    }
    r.Trim();
    *remainder = std::move(r);
  }
  if (quotient != nullptr) {
    *quotient = std::move(q);
  }
}

BigUint BigUint::Mod(const BigUint& a, const BigUint& m) {
  BigUint r;
  DivMod(a, m, nullptr, &r);
  return r;
}

BigUint BigUint::MulMod(const BigUint& a, const BigUint& b, const BigUint& m) {
  return Mod(Mul(a, b), m);
}

namespace {

// Arithmetic modulo one odd m in Montgomery form (x is held as xR mod m,
// R = 2^(64n) for an n-limb m). Multiplication is CIOS (Koc, Acar and
// Kaliski, "Analyzing and Comparing Montgomery Multiplication Algorithms",
// IEEE Micro 1996): the product and its reduction interleave limb by limb,
// so the ladder never forms a double-width product and never divides.
// Limbs are 64 bits wide and live in fixed arrays sized for
// BigUint::kMontgomeryMaxBits; only the first n are used.
class MontgomeryContext {
 public:
  static constexpr size_t kMaxLimbs = BigUint::kMontgomeryMaxBits / 64;
  using Limbs = std::array<uint64_t, kMaxLimbs>;

  // m: odd, at most kMontgomeryMaxBits bits.
  explicit MontgomeryContext(const BigUint& m)
      : m_(Pack(m)), n_((m.limbs().size() + 1) / 2) {
    // -m^-1 mod 2^64 by Newton's iteration: for odd m0, m0 is its own
    // inverse mod 2^3, and each step doubles the number of correct bits.
    uint64_t inv = m_[0];
    for (int i = 0; i < 5; ++i) {
      inv *= 2 - m_[0] * inv;
    }
    m_inv_ = 0 - inv;
    // R^2 mod m, the factor that moves a value into Montgomery form; the
    // setup's one division.
    r2_ = Pack(BigUint::Mod(BigUint(1).ShiftLeft(128 * n_), m));
  }

  // Limbs in use.
  size_t size() const { return n_; }

  // v's 32-bit limbs packed into 64-bit ones; v must fit kMaxLimbs.
  static Limbs Pack(const BigUint& v) {
    const std::vector<uint32_t>& src = v.limbs();
    Limbs out{};
    for (size_t i = 0; i < src.size(); ++i) {
      out[i / 2] |= static_cast<uint64_t>(src[i]) << (32 * (i % 2));
    }
    return out;
  }

  // base^exp mod m for base < m, both in normal form, by a 4-bit fixed
  // window scanned from the top: four squarings, then one multiplication
  // by a table entry base^digit, per window.
  Limbs Pow(const Limbs& base, const BigUint& exp) const {
    Limbs one{};
    one[0] = 1;
    std::array<Limbs, 16> table{};
    Mul(one, r2_, &table[0]);  // R mod m: 1 in Montgomery form
    Mul(base, r2_, &table[1]);
    for (size_t i = 2; i < table.size(); ++i) {
      Mul(table[i - 1], table[1], &table[i]);
    }
    const std::vector<uint32_t>& e = exp.limbs();
    const size_t windows = (exp.BitLength() + 3) / 4;
    Limbs acc = table[0];
    for (size_t w = windows; w-- > 0;) {
      if (w + 1 != windows) {
        for (int s = 0; s < 4; ++s) {
          Mul(acc, acc, &acc);
        }
      }
      // Eight windows per 32-bit limb.
      const uint32_t digit = (e[w / 8] >> (4 * (w % 8))) & 0xfu;
      if (digit != 0) {
        Mul(acc, table[digit], &acc);
      }
    }
    Limbs out{};
    Mul(acc, one, &out);  // leave Montgomery form
    return out;
  }

 private:
  using u128 = unsigned __int128;

  // *out = a * b * R^-1 mod m, for a * b < mR (true whenever a < R and
  // b < m). Writes only the first n limbs; out may alias a or b.
  void Mul(const Limbs& a, const Limbs& b, Limbs* out) const {
    const size_t n = n_;
    std::array<uint64_t, kMaxLimbs + 2> t{};
    for (size_t i = 0; i < n; ++i) {
      // t += a * b[i]
      uint64_t carry = 0;
      for (size_t j = 0; j < n; ++j) {
        const u128 s = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
        t[j] = static_cast<uint64_t>(s);
        carry = static_cast<uint64_t>(s >> 64);
      }
      u128 s = static_cast<u128>(t[n]) + carry;
      t[n] = static_cast<uint64_t>(s);
      t[n + 1] = static_cast<uint64_t>(s >> 64);
      // t = (t + q * m) / 2^64, with q chosen so the low limb cancels.
      const uint64_t q = t[0] * m_inv_;
      s = static_cast<u128>(q) * m_[0] + t[0];
      carry = static_cast<uint64_t>(s >> 64);
      for (size_t j = 1; j < n; ++j) {
        s = static_cast<u128>(q) * m_[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(s);
        carry = static_cast<uint64_t>(s >> 64);
      }
      s = static_cast<u128>(t[n]) + carry;
      t[n - 1] = static_cast<uint64_t>(s);
      t[n] = t[n + 1] + static_cast<uint64_t>(s >> 64);
    }
    // t < 2m: one conditional subtraction lands it in [0, m). a and b are
    // not read again, so out may take t - m even when it aliases them.
    uint64_t borrow = 0;
    for (size_t j = 0; j < n; ++j) {
      const u128 d = static_cast<u128>(t[j]) - m_[j] - borrow;
      (*out)[j] = static_cast<uint64_t>(d);
      borrow = static_cast<uint64_t>(d >> 64) & 1u;
    }
    if (t[n] < borrow) {  // t < m after all: keep t
      std::copy_n(t.begin(), n, out->begin());
    }
  }

  Limbs m_;
  size_t n_;
  uint64_t m_inv_ = 0;  // -m^-1 mod 2^64
  Limbs r2_{};          // R^2 mod m
};

}  // namespace

BigUint BigUint::PowMod(const BigUint& base, const BigUint& exp,
                        const BigUint& m) {
  SNIC_CHECK(!m.IsZero());
  if (!m.IsOdd() || m.BitLength() > kMontgomeryMaxBits) {
    return PowModReference(base, exp, m);
  }
  const MontgomeryContext ctx(m);
  const MontgomeryContext::Limbs r =
      ctx.Pow(MontgomeryContext::Pack(Mod(base, m)), exp);
  BigUint out;
  out.limbs_.resize(2 * ctx.size());
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = static_cast<uint32_t>(r[i / 2] >> (32 * (i % 2)));
  }
  out.Trim();
  return out;
}

BigUint BigUint::PowModReference(const BigUint& base, const BigUint& exp,
                                 const BigUint& m) {
  SNIC_CHECK(!m.IsZero());
  // Reduced like every later step, so m = 1 gives 0 even for exp = 0.
  BigUint result = Mod(BigUint(1), m);
  BigUint acc = Mod(base, m);
  const size_t bits = exp.BitLength();
  for (size_t i = 0; i < bits; ++i) {
    if (exp.GetBit(i)) {
      result = MulMod(result, acc, m);
    }
    acc = MulMod(acc, acc, m);
  }
  return result;
}

bool BigUint::InvMod(const BigUint& a, const BigUint& m, BigUint* inverse) {
  // Extended Euclid over non-negative values, tracking signs explicitly.
  BigUint r0 = m;
  BigUint r1 = Mod(a, m);
  BigUint t0;            // coefficient for m
  BigUint t1(1);         // coefficient for a
  bool t0_neg = false;
  bool t1_neg = false;
  while (!r1.IsZero()) {
    BigUint q;
    BigUint r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q * t1 (with sign tracking)
    const BigUint qt1 = Mul(q, t1);
    BigUint t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: t0 - q*t1 may flip sign.
      if (Compare(t0, qt1) >= 0) {
        t2 = Sub(t0, qt1);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt1, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt1);
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (!(r0 == BigUint(1))) {
    return false;  // not coprime
  }
  BigUint inv = t0_neg ? Sub(m, Mod(t0, m)) : Mod(t0, m);
  if (Compare(inv, m) >= 0) {
    inv = Sub(inv, m);
  }
  *inverse = std::move(inv);
  return true;
}

BigUint BigUint::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) {
    BigUint out = *this;
    return out;
  }
  const size_t limb_shift = bits / 32;
  const size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    const uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigUint BigUint::ShiftRight(size_t bits) const {
  const size_t limb_shift = bits / 32;
  const size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) {
    return BigUint();
  }
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

BigUint BigUint::RandomWithBits(size_t bits, Rng& rng) {
  SNIC_CHECK(bits > 0);
  BigUint out;
  out.limbs_.assign((bits + 31) / 32, 0);
  for (auto& limb : out.limbs_) {
    limb = rng.NextU32();
  }
  // Clear excess bits, set the MSB so the bit length is exact.
  const size_t top_bits = bits % 32 == 0 ? 32 : bits % 32;
  uint32_t& top = out.limbs_.back();
  if (top_bits < 32) {
    top &= (1u << top_bits) - 1;
  }
  top |= 1u << (top_bits - 1);
  out.Trim();
  return out;
}

BigUint BigUint::RandomInRange(const BigUint& lo, const BigUint& hi,
                               Rng& rng) {
  SNIC_CHECK(Compare(lo, hi) <= 0);
  const BigUint span = Add(Sub(hi, lo), BigUint(1));
  const size_t bits = span.BitLength();
  for (;;) {
    BigUint candidate;
    candidate.limbs_.assign((bits + 31) / 32, 0);
    for (auto& limb : candidate.limbs_) {
      limb = rng.NextU32();
    }
    const size_t top_bits = bits % 32 == 0 ? 32 : bits % 32;
    if (top_bits < 32) {
      candidate.limbs_.back() &= (1u << top_bits) - 1;
    }
    candidate.Trim();
    if (Compare(candidate, span) < 0) {
      return Add(lo, candidate);
    }
  }
}

bool BigUint::IsProbablePrime(const BigUint& n, int rounds, Rng& rng) {
  if (n.IsZero() || n == BigUint(1)) {
    return false;
  }
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                     23ULL, 29ULL, 31ULL, 37ULL}) {
    const BigUint bp(p);
    if (n == bp) {
      return true;
    }
    if (Mod(n, bp).IsZero()) {
      return false;
    }
  }
  // n - 1 = d * 2^r with d odd.
  const BigUint n_minus_1 = Sub(n, BigUint(1));
  BigUint d = n_minus_1;
  size_t r = 0;
  while (!d.IsOdd()) {
    d = d.ShiftRight(1);
    ++r;
  }
  const BigUint two(2);
  const BigUint n_minus_2 = Sub(n, two);
  for (int round = 0; round < rounds; ++round) {
    const BigUint a = RandomInRange(two, n_minus_2, rng);
    BigUint x = PowMod(a, d, n);
    if (x == BigUint(1) || x == n_minus_1) {
      continue;
    }
    bool witness = true;
    for (size_t i = 0; i + 1 < r; ++i) {
      x = MulMod(x, x, n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

BigUint BigUint::GeneratePrime(size_t bits, Rng& rng) {
  SNIC_CHECK(bits >= 8);
  for (;;) {
    BigUint candidate = RandomWithBits(bits, rng);
    if (!candidate.IsOdd()) {
      candidate = Add(candidate, BigUint(1));
    }
    if (IsProbablePrime(candidate, 20, rng)) {
      return candidate;
    }
  }
}

uint64_t BigUint::ToU64() const {
  SNIC_CHECK(limbs_.size() <= 2);
  uint64_t out = 0;
  if (limbs_.size() >= 1) {
    out = limbs_[0];
  }
  if (limbs_.size() == 2) {
    out |= static_cast<uint64_t>(limbs_[1]) << 32;
  }
  return out;
}

}  // namespace snic::crypto
