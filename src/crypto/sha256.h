// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used by the trusted-instruction layer: `nf_launch` folds every installed
// page and configuration record into a cumulative SHA-256 measurement of a
// function's initial state (§4.6), and `nf_attest` signs that digest
// (Appendix A). A streaming interface is provided so the measurement can be
// updated page-by-page exactly as the microcoded instruction would.
//
// Two compression functions sit under the one Sha256 class: the portable
// scalar one, and one on the x86-64 SHA extensions (SHA-NI) that Sha256
// uses whenever the CPU reports them at run time. The scalar one is the
// oracle: tests hold the SHA-NI one to it on random inputs
// (docs/PERFORMANCE.md, "Control-plane crypto").

#ifndef SNIC_CRYPTO_SHA256_H_
#define SNIC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace snic::crypto {

using Sha256Digest = std::array<uint8_t, 32>;

class Sha256 {
 public:
  Sha256() { Reset(); }

  // Resets to the initial hash state.
  void Reset();

  // Absorbs `data`; may be called any number of times.
  void Update(std::span<const uint8_t> data);
  void Update(const void* data, size_t len);

  // Absorbs `n` zero bytes: the same state as Update over `n` zeros, with
  // no buffer of them. A run of at least kZeroRunMemoBlocks whole blocks
  // is compressed once per process: the chaining state after it is
  // remembered, keyed by (chaining state before it, block count), in a
  // bounded process-wide memo (src/common/process_memo.h). nf_launch
  // measures the zero tail of every image page this way.
  void UpdateZeros(uint64_t n);

  static constexpr uint64_t kZeroRunMemoBlocks = 64;

  // Finalizes and returns the digest. The object must be Reset() before
  // reuse; Finalize() is idempotent-unsafe by design (mirrors hardware).
  Sha256Digest Finalize();

  // One-shot convenience.
  static Sha256Digest Hash(std::span<const uint8_t> data);
  static Sha256Digest Hash(const void* data, size_t len);

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

// Compression functions: fold `count` whole 64-byte blocks at `blocks` into
// the eight-word hash `state`. Sha256 calls the SHA-NI one when
// Sha256HasShaNi() and the scalar one otherwise; callers of
// Sha256CompressShaNi must check Sha256HasShaNi() first.
void Sha256CompressScalar(uint32_t state[8], const uint8_t* blocks,
                          size_t count);
bool Sha256HasShaNi();
#if defined(__x86_64__)
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* blocks,
                         size_t count);
#endif

// Lowercase hex rendering of a digest (for logs, tests, and attestation
// transcripts).
std::string DigestToHex(const Sha256Digest& digest);

// HMAC-SHA256 (RFC 2104); used to derive symmetric channel keys from the
// Diffie-Hellman shared secret at the end of the attestation exchange.
Sha256Digest HmacSha256(std::span<const uint8_t> key,
                        std::span<const uint8_t> message);

}  // namespace snic::crypto

#endif  // SNIC_CRYPTO_SHA256_H_
