// Set-associative cache with LRU replacement and way partitioning.
//
// S-NIC eliminates cache side channels by giving each function a private
// slice of L1/L2/L3 (§4.2). Hard static partitioning splits the ways of
// every set between security domains; SecDCP-style partitioning gives each
// domain a floor and lets only the NIC OS's behaviour trigger resizing
// (never the functions', so information can flow NIC-OS -> function but not
// the reverse). `kShared` models a commodity NIC (baseline for Fig. 5).
//
// This is the fast model on the replay hot path: way metadata lives in
// structure-of-arrays form (tags / LRU ticks / domains in separate dense
// arrays, with validity folded into the tag as a sentinel so the hit scan
// streams one array), set indexing is shift-and-mask (no division), and the
// hit scan plus victim selection are branchless mask scans resolved with
// std::countr_zero. The pre-rewrite scalar implementation survives as
// sim::ReferenceCache (src/sim/reference.h); the two are kept byte-
// equivalent by tests/sim_differential_test.cc — see docs/PERFORMANCE.md.

#ifndef SNIC_SIM_CACHE_H_
#define SNIC_SIM_CACHE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/status.h"

// AVX2 gives the scans 4-wide 64-bit lane compares (vpcmpeqq); baseline
// x86-64 (SSE2) has no 64-bit lane compare at all, so below AVX2 the scalar
// bodies are the fastest portable form. -mavx2 is applied project-wide by
// the SNIC_AVX2 CMake option (integer SIMD only — no -mfma, so scalar FP
// codegen and the golden pins are untouched).
#if defined(__AVX2__) && defined(__x86_64__)
#include <immintrin.h>
#define SNIC_CACHE_SCAN_AVX2 1
#endif

namespace snic::sim {

namespace cache_internal {

#ifdef SNIC_CACHE_SCAN_AVX2

// Low 4 mask bits = per-64-bit-lane results of a vpcmpeqq/vpcmpgtq vector.
inline uint32_t LaneMask(__m256i cmp) {
  return static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(cmp)));
}

// Lane-wise min of two vectors of LRU ticks. vpminuq is AVX-512 only, so
// this is signed-compare + blend — sound because ticks are bounded by the
// access count (one ++tick_ per access, so far below 2^63).
inline __m256i Min64(__m256i x, __m256i y) {
  return _mm256_blendv_epi8(x, y, _mm256_cmpgt_epi64(x, y));
}

#endif  // SNIC_CACHE_SCAN_AVX2

// Bitmask of the elements of row[0..n) equal to `needle` (bit i set iff
// row[i] == needle, n <= 64): the hit-scan shape. The common associativities
// dispatch to fully unrolled bodies so every mask bit is built with a
// constant shift (a variable `shl %cl` costs extra uops on most x86 cores,
// and the rolled loop stops the compiler from unrolling on its own).
template <uint32_t N>
inline uint64_t EqMaskN(const uint64_t* row, uint64_t needle) {
  uint64_t mask = 0;
  for (uint32_t w = 0; w < N; ++w) {
    mask |= static_cast<uint64_t>(row[w] == needle) << w;
  }
  return mask;
}

inline uint64_t EqMask(const uint64_t* row, uint32_t n, uint64_t needle) {
#ifdef SNIC_CACHE_SCAN_AVX2
  const __m256i nd = _mm256_set1_epi64x(static_cast<long long>(needle));
  const __m256i* v = reinterpret_cast<const __m256i*>(row);
  switch (n) {
    case 16:
      return LaneMask(_mm256_cmpeq_epi64(_mm256_loadu_si256(v + 0), nd)) |
             LaneMask(_mm256_cmpeq_epi64(_mm256_loadu_si256(v + 1), nd)) << 4 |
             LaneMask(_mm256_cmpeq_epi64(_mm256_loadu_si256(v + 2), nd)) << 8 |
             LaneMask(_mm256_cmpeq_epi64(_mm256_loadu_si256(v + 3), nd)) << 12;
    case 8:
      return LaneMask(_mm256_cmpeq_epi64(_mm256_loadu_si256(v + 0), nd)) |
             LaneMask(_mm256_cmpeq_epi64(_mm256_loadu_si256(v + 1), nd)) << 4;
    case 4:
      return LaneMask(_mm256_cmpeq_epi64(_mm256_loadu_si256(v + 0), nd));
    default:
      break;
  }
#endif  // SNIC_CACHE_SCAN_AVX2
  switch (n) {
    case 16:
      return EqMaskN<16>(row, needle);
    case 8:
      return EqMaskN<8>(row, needle);
    case 4:
      return EqMaskN<4>(row, needle);
    default: {
      uint64_t mask = 0;
      for (uint32_t w = 0; w < n; ++w) {
        mask |= static_cast<uint64_t>(row[w] == needle) << w;
      }
      return mask;
    }
  }
}

// First index of the minimum of row[0..n), n >= 1 — the victim-scan shape.
// Four interleaved chains keep the compare-select dependency short (a
// single-chain loop serializes one ~2-cycle conditional move per element);
// the merge breaks value ties toward the lower index, which restores the
// global first-min-wins order the reference's strict `<` scan produces.
inline uint32_t MinIndex(const uint64_t* row, uint32_t n) {
#ifdef SNIC_CACHE_SCAN_AVX2
  // Min-reduce the row, broadcast the minimum, then take the first lane that
  // equals it — countr_zero of the equality mask is exactly the reference's
  // first-occurrence-of-minimum (strict `<`) victim.
  const __m256i* v = reinterpret_cast<const __m256i*>(row);
  if (n == 16) {
    const __m256i a = _mm256_loadu_si256(v + 0);
    const __m256i b = _mm256_loadu_si256(v + 1);
    const __m256i c = _mm256_loadu_si256(v + 2);
    const __m256i d = _mm256_loadu_si256(v + 3);
    __m256i m = Min64(Min64(a, b), Min64(c, d));
    m = Min64(m, _mm256_permute4x64_epi64(m, _MM_SHUFFLE(1, 0, 3, 2)));
    m = Min64(m, _mm256_permute4x64_epi64(m, _MM_SHUFFLE(2, 3, 0, 1)));
    const uint32_t mask =
        LaneMask(_mm256_cmpeq_epi64(a, m)) |
        LaneMask(_mm256_cmpeq_epi64(b, m)) << 4 |
        LaneMask(_mm256_cmpeq_epi64(c, m)) << 8 |
        LaneMask(_mm256_cmpeq_epi64(d, m)) << 12;
    return static_cast<uint32_t>(std::countr_zero(mask));
  }
  if (n == 8) {
    const __m256i a = _mm256_loadu_si256(v + 0);
    const __m256i b = _mm256_loadu_si256(v + 1);
    __m256i m = Min64(a, b);
    m = Min64(m, _mm256_permute4x64_epi64(m, _MM_SHUFFLE(1, 0, 3, 2)));
    m = Min64(m, _mm256_permute4x64_epi64(m, _MM_SHUFFLE(2, 3, 0, 1)));
    const uint32_t mask = LaneMask(_mm256_cmpeq_epi64(a, m)) |
                          LaneMask(_mm256_cmpeq_epi64(b, m)) << 4;
    return static_cast<uint32_t>(std::countr_zero(mask));
  }
  if (n == 4) {
    const __m256i a = _mm256_loadu_si256(v + 0);
    __m256i m = a;
    m = Min64(m, _mm256_permute4x64_epi64(m, _MM_SHUFFLE(1, 0, 3, 2)));
    m = Min64(m, _mm256_permute4x64_epi64(m, _MM_SHUFFLE(2, 3, 0, 1)));
    return static_cast<uint32_t>(
        std::countr_zero(LaneMask(_mm256_cmpeq_epi64(a, m))));
  }
#endif  // SNIC_CACHE_SCAN_AVX2
  if (n >= 8) {
    uint64_t b0 = row[0], b1 = row[1], b2 = row[2], b3 = row[3];
    uint32_t i0 = 0, i1 = 1, i2 = 2, i3 = 3;
    uint32_t w = 4;
    for (; w + 4 <= n; w += 4) {
      const bool t0 = row[w] < b0;
      i0 = t0 ? w : i0;
      b0 = t0 ? row[w] : b0;
      const bool t1 = row[w + 1] < b1;
      i1 = t1 ? w + 1 : i1;
      b1 = t1 ? row[w + 1] : b1;
      const bool t2 = row[w + 2] < b2;
      i2 = t2 ? w + 2 : i2;
      b2 = t2 ? row[w + 2] : b2;
      const bool t3 = row[w + 3] < b3;
      i3 = t3 ? w + 3 : i3;
      b3 = t3 ? row[w + 3] : b3;
    }
    for (; w < n; ++w) {
      const bool t = row[w] < b0;
      i0 = t ? w : i0;
      b0 = t ? row[w] : b0;
    }
    // Each chain holds the first occurrence of its own minimum; merging on
    // (value, index) yields the first occurrence of the global minimum.
    if (b1 < b0 || (b1 == b0 && i1 < i0)) {
      b0 = b1;
      i0 = i1;
    }
    if (b2 < b0 || (b2 == b0 && i2 < i0)) {
      b0 = b2;
      i0 = i2;
    }
    if (b3 < b0 || (b3 == b0 && i3 < i0)) {
      i0 = i3;
    }
    return i0;
  }
  uint64_t best = row[0];
  uint32_t idx = 0;
  for (uint32_t w = 1; w < n; ++w) {
    const bool t = row[w] < best;
    idx = t ? w : idx;
    best = t ? row[w] : best;
  }
  return idx;
}

}  // namespace cache_internal

enum class PartitionPolicy {
  kShared,        // single LRU pool; hits may be satisfied from any line
  kStaticEqual,   // ways split evenly between domains, no sharing
  kSecDcp,        // per-domain floor + adjustable remainder (NIC-OS driven)
};

struct CacheConfig {
  uint64_t size_bytes = 4 * 1024 * 1024;
  uint32_t line_bytes = 64;
  uint32_t associativity = 16;  // at most 64: one set fits the hit mask
  uint32_t hit_latency_cycles = 12;
  PartitionPolicy policy = PartitionPolicy::kShared;
  uint32_t num_domains = 1;
  // Approximate pseudo-LRU: evict a random way (instead of the strict LRU
  // victim) for 1 in 8 fills. Strict LRU suffers a pathological 0% hit rate
  // on cyclic scans one line larger than the set — a cliff real tree-PLRU
  // hardware does not exhibit.
  bool pseudo_lru = false;
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double MissRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(misses) /
                                  static_cast<double>(total);
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  // Performs a lookup for `addr` by domain `domain`. Returns true on hit;
  // on miss, installs the line into a way the domain may use (evicting its
  // LRU line there). Defined inline below: on the Fig. 5 replay path this is
  // the single hottest call and must fold into the caller's loop.
  bool Access(uint64_t addr, uint32_t domain);

  // Invalidate every line owned by `domain` (nf_teardown zeroes cache lines
  // used by the destroyed function, §4.6).
  void FlushDomain(uint32_t domain);

  // SecDCP resize hook: grants `ways` ways of every set to `domain`
  // (clamped to [1, assoc - num_domains + 1]). Only meaningful under kSecDcp.
  void ResizeDomain(uint32_t domain, uint32_t ways);

  // Number of ways domain may allocate into under the current policy.
  uint32_t WaysForDomain(uint32_t domain) const;

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats(); }

  uint32_t num_sets() const { return num_sets_; }

  // Sentinel tag marking an empty way. Never collides with a real tag: that
  // would take an address within one set-span of 2^64 (the replay engines
  // cap trace addresses at 44 bits anyway).
  static constexpr uint64_t kInvalidTag = ~uint64_t{0};

 private:
  // Miss path: victim selection + line install. Out of line — on a hit
  // (the common case by construction) none of this code is touched.
  bool MissFill(uint64_t tag, uint32_t domain, size_t base, uint32_t begin,
                uint32_t end);

  // Way index range [begin, end) domain may use in every set.
  void DomainWayRange(uint32_t domain, uint32_t* begin, uint32_t* end) const;
  // Recomputes way_begin_/way_end_ from the policy (and secdcp_ways_).
  void RebuildWayRanges();

  CacheConfig config_;
  uint32_t num_sets_;
  uint32_t line_shift_;   // log2(line_bytes): addr -> line address
  uint32_t set_mask_;     // num_sets_ - 1
  uint32_t set_shift_;    // log2(num_sets_): line address -> tag
  bool shared_;           // policy == kShared (domain may exceed num_domains)
  uint64_t tick_ = 0;
  uint64_t victim_lcg_ = 0x243f6a8885a308d3ULL;  // deterministic PLRU noise
  // Structure-of-arrays line metadata, each num_sets_ * associativity,
  // row-major by set. Splitting the old `Line` struct means the hit scan
  // streams through 8-byte tags only (and the victim scan through LRU ticks
  // only) instead of striding over 24-byte records. Empty ways hold
  // kInvalidTag, so validity costs the scans nothing extra.
  std::vector<uint64_t> tags_;
  // LRU ticks, smaller = older. Invariant: lru_[i] == 0 iff way i is invalid
  // (ticks start at 1; flush and repartition zero the tick alongside the
  // sentinel tag). MissFill leans on this to find "first invalid way, else
  // first least-recently-used way" with a single min-index scan.
  std::vector<uint64_t> lru_;
  std::vector<uint32_t> domains_;
  // Per-domain way windows, rebuilt on construction and SecDCP resize so
  // Access never recomputes partition arithmetic. Unused under kShared.
  std::vector<uint32_t> way_begin_;
  std::vector<uint32_t> way_end_;
  std::vector<uint32_t> secdcp_ways_;  // per-domain way counts under kSecDcp
  CacheStats stats_;
};

inline bool Cache::Access(uint64_t addr, uint32_t domain) {
  SNIC_CHECK(domain < config_.num_domains || shared_);
  const uint64_t line_addr = addr >> line_shift_;
  const uint32_t set = static_cast<uint32_t>(line_addr) & set_mask_;
  const uint64_t tag = line_addr >> set_shift_;
  SNIC_CHECK(tag != kInvalidTag);
  const size_t base = static_cast<size_t>(set) * config_.associativity;
  ++tick_;

  uint32_t begin, end;
  if (shared_) {
    begin = 0;
    end = config_.associativity;
  } else {
    begin = way_begin_[domain];
    end = way_end_[domain];
  }
  // Hit scan. Under kShared a hit anywhere in the set counts (this is what
  // makes "soft" partitioning like Intel CAT leaky, see §4.2 footnote); under
  // hard partitioning only the domain's own ways are searched. The scan is
  // branchless: one match bit per way, resolved with countr_zero (at most
  // one way can match — installs only happen when the scan found nothing,
  // and empty ways hold kInvalidTag, which never equals a real tag).
  const uint64_t* tags = tags_.data() + base;
  const uint64_t match = cache_internal::EqMask(tags + begin, end - begin, tag);
  if (match != 0) {
    const uint32_t w =
        begin + static_cast<uint32_t>(std::countr_zero(match));
    // Under kShared, a cross-domain hit transfers LRU ownership; the
    // domain tag is informational there.
    lru_[base + w] = tick_;
    domains_[base + w] = domain;
    ++stats_.hits;
    return true;
  }
  return MissFill(tag, domain, base, begin, end);
}

}  // namespace snic::sim

#endif  // SNIC_SIM_CACHE_H_
