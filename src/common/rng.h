// Deterministic pseudo-random number generation (xoshiro256**).
//
// Every stochastic component in the repository (trace generation, workload
// sampling, RSA key generation, Diffie-Hellman shares) takes an explicit
// `Rng&` so experiments are reproducible bit-for-bit from a seed, as required
// for regenerating the paper's tables.
//
// There is deliberately no global, thread-local, or `static` generator state
// anywhere in this header (audited for the parallel sweep runtime): every
// stream lives in an Rng instance, so per-task generators seeded via
// runtime::DeriveTaskSeed(base_seed, task_index) are fully independent and
// schedule-invariant.

#ifndef SNIC_COMMON_RNG_H_
#define SNIC_COMMON_RNG_H_

#include <array>
#include <cstdint>

namespace snic {

// xoshiro256** 1.0 (Blackman & Vigna, public domain reference algorithm).
// Not cryptographically secure, and not meant to be: the crypto layer draws
// its primes, exponents and nonces from it too, because the simulated root
// of trust must produce the same keys from the same seed.
class Rng {
 public:
  // The generator's whole state: two Rngs with equal State produce equal
  // streams. crypto::GenerateRsaKeyPair keys its memo by the State on entry
  // and, on a hit, restores the State the generation left behind, so every
  // later draw is the one an uncached generation would have given.
  using State = std::array<uint64_t, 4>;

  // Seeds the four 64-bit words of state via SplitMix64 so that any seed
  // (including 0) yields a well-mixed state.
  explicit Rng(uint64_t seed) {
    uint64_t x = seed;
    for (auto& word : state_) {
      word = SplitMix64(x);
    }
  }

  // Uniform 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  // avoid modulo bias (matters for Zipf rank draws over large flow pools).
  uint64_t NextBounded(uint64_t bound) {
    const uint64_t threshold = -bound % bound;
    for (;;) {
      const uint64_t r = NextU64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform 32-bit value.
  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }

  State SaveState() const { return state_; }
  void RestoreState(const State& state) { state_ = state; }

  // One SplitMix64 step: advances `x` and returns a well-mixed 64-bit value.
  // Public so seed-derivation schemes (runtime::DeriveTaskSeed) share the
  // same mixing function the constructor uses.
  static uint64_t SplitMix64(uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  State state_;
};

}  // namespace snic

#endif  // SNIC_COMMON_RNG_H_
