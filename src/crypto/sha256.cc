#include "src/crypto/sha256.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/common/process_memo.h"

namespace snic::crypto {
namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The FIPS 180-4 compression of one block, word by word.
void ProcessBlock(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

// The one dispatch point: SHA-NI when the CPU has it, scalar otherwise.
void Compress(uint32_t state[8], const uint8_t* blocks, size_t count) {
#if defined(__x86_64__)
  static const bool has_sha_ni = Sha256HasShaNi();
  if (has_sha_ni) {
    Sha256CompressShaNi(state, blocks, count);
    return;
  }
#endif
  Sha256CompressScalar(state, blocks, count);
}

// Zero blocks to compress from: a run is fed in chunks of this many.
constexpr size_t kZeroChunkBlocks = 64;
constexpr uint8_t kZeroBlocks[kZeroChunkBlocks * 64] = {};

void CompressZeros(uint32_t state[8], uint64_t count) {
  while (count > 0) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(count, kZeroChunkBlocks));
    Compress(state, kZeroBlocks, chunk);
    count -= chunk;
  }
}

}  // namespace

void Sha256CompressScalar(uint32_t state[8], const uint8_t* blocks,
                          size_t count) {
  for (size_t i = 0; i < count; ++i) {
    ProcessBlock(state, blocks + i * 64);
  }
}

#if defined(__x86_64__)

bool Sha256HasShaNi() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

// The Intel SHA extensions keep the state as two vectors, ABEF and CDGH;
// each SHA256RNDS2 runs two rounds, and SHA256MSG1/MSG2 extend the message
// schedule four words at a time. With W[g] the g-th group of four schedule
// words, W[g] for g >= 4 is msg2(msg1(W[g-4], W[g-3]) + X, W[g-1]), where X
// (from alignr) is the four words that start one word into W[g-2].
__attribute__((target("sha,sse4.1"))) void Sha256CompressShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t count) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (size_t b = 0; b < count; ++b) {
    const uint8_t* block = blocks + b * 64;
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i m;
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)),
            byte_swap);
      } else {
        m = _mm_sha256msg1_epu32(w[g & 3], w[(g - 3) & 3]);
        m = _mm_add_epi32(
            m, _mm_alignr_epi8(w[(g - 1) & 3], w[(g - 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, w[(g - 1) & 3]);
      }
      w[g & 3] = m;
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(kRoundConstants + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool Sha256HasShaNi() { return false; }

#endif

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(std::span<const uint8_t> data) {
  Update(data.data(), data.size());
}

void Sha256::Update(const void* data, size_t len) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ < sizeof(buffer_)) {
      return;
    }
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the caller's buffer, in one call.
  const size_t blocks = len / sizeof(buffer_);
  if (blocks > 0) {
    Compress(state_, bytes, blocks);
    bytes += blocks * sizeof(buffer_);
    len -= blocks * sizeof(buffer_);
  }
  if (len > 0) {
    std::memcpy(buffer_, bytes, len);
    buffer_len_ = len;
  }
}

void Sha256::UpdateZeros(uint64_t n) {
  bit_count_ += n * 8;
  if (buffer_len_ > 0) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(n, sizeof(buffer_) - buffer_len_));
    std::memset(buffer_ + buffer_len_, 0, take);
    buffer_len_ += take;
    n -= take;
    if (buffer_len_ < sizeof(buffer_)) {
      return;
    }
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  const uint64_t blocks = n / sizeof(buffer_);
  if (blocks >= kZeroRunMemoBlocks) {
    // The state after a zero run is a pure function of the state before it
    // and the run's length, so a hit is the very compressions a miss does.
    // Image sizes repeat across the launches of a process (every relaunch
    // of a tenant measures the same tail); a tail that never repeats costs
    // one lookup. 1024 entries hold well over the scenario matrix's
    // distinct tails in about 100 KB.
    using State = std::array<uint32_t, 8>;
    using Memo = ProcessMemo<struct ZeroRunTag, std::pair<State, uint64_t>,
                             State, 1024>;
    State in;
    std::copy(state_, state_ + 8, in.begin());
    const State out = Memo::Instance().GetOrCompute({in, blocks}, [&] {
      State s = in;
      CompressZeros(s.data(), blocks);
      return s;
    });
    std::copy(out.begin(), out.end(), state_);
  } else {
    CompressZeros(state_, blocks);
  }
  buffer_len_ = static_cast<size_t>(n % sizeof(buffer_));
  std::memset(buffer_, 0, buffer_len_);
}

Sha256Digest Sha256::Finalize() {
  // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit bit count.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  Compress(state_, buffer_, 1);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[static_cast<size_t>(i) * 4 + 0] =
        static_cast<uint8_t>(state_[i] >> 24);
    digest[static_cast<size_t>(i) * 4 + 1] =
        static_cast<uint8_t>(state_[i] >> 16);
    digest[static_cast<size_t>(i) * 4 + 2] =
        static_cast<uint8_t>(state_[i] >> 8);
    digest[static_cast<size_t>(i) * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(std::span<const uint8_t> data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Sha256Digest Sha256::Hash(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

std::string DigestToHex(const Sha256Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

Sha256Digest HmacSha256(std::span<const uint8_t> key,
                        std::span<const uint8_t> message) {
  uint8_t key_block[64] = {};
  if (key.size() > 64) {
    const Sha256Digest kd = Sha256::Hash(key);
    std::memcpy(key_block, kd.data(), kd.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }
  uint8_t ipad[64];
  uint8_t opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<uint8_t>(key_block[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.Update(ipad, sizeof(ipad));
  inner.Update(message);
  const Sha256Digest inner_digest = inner.Finalize();
  Sha256 outer;
  outer.Update(opad, sizeof(opad));
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finalize();
}

}  // namespace snic::crypto
