#include "src/sim/cache.h"

#include <algorithm>

namespace snic::sim {
namespace {

bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

Cache::Cache(const CacheConfig& config) : config_(config) {
  SNIC_CHECK(config_.line_bytes > 0 && IsPowerOfTwo(config_.line_bytes));
  // One set's ways fit the 64-bit match mask of the hit scan.
  SNIC_CHECK(config_.associativity > 0 && config_.associativity <= 64);
  SNIC_CHECK(config_.num_domains > 0);
  const uint64_t lines = config_.size_bytes / config_.line_bytes;
  SNIC_CHECK(lines >= config_.associativity);
  num_sets_ = static_cast<uint32_t>(lines / config_.associativity);
  SNIC_CHECK(IsPowerOfTwo(num_sets_));
  line_shift_ = static_cast<uint32_t>(std::countr_zero(
      static_cast<uint64_t>(config_.line_bytes)));
  set_mask_ = num_sets_ - 1;
  set_shift_ = static_cast<uint32_t>(std::countr_zero(
      static_cast<uint64_t>(num_sets_)));
  shared_ = config_.policy == PartitionPolicy::kShared;
  const size_t total =
      static_cast<size_t>(num_sets_) * config_.associativity;
  tags_.assign(total, kInvalidTag);
  lru_.assign(total, 0);
  domains_.assign(total, 0);
  if (config_.policy != PartitionPolicy::kShared) {
    SNIC_CHECK(config_.associativity >= config_.num_domains);
  }
  if (config_.policy == PartitionPolicy::kSecDcp) {
    secdcp_ways_.assign(config_.num_domains,
                        config_.associativity / config_.num_domains);
  }
  RebuildWayRanges();
}

void Cache::DomainWayRange(uint32_t domain, uint32_t* begin,
                           uint32_t* end) const {
  switch (config_.policy) {
    case PartitionPolicy::kShared:
      *begin = 0;
      *end = config_.associativity;
      return;
    case PartitionPolicy::kStaticEqual: {
      const uint32_t base = config_.associativity / config_.num_domains;
      const uint32_t extra = config_.associativity % config_.num_domains;
      // The first `extra` domains get one additional way.
      const uint32_t start =
          domain * base + std::min(domain, extra);
      const uint32_t ways = base + (domain < extra ? 1 : 0);
      *begin = start;
      *end = start + ways;
      return;
    }
    case PartitionPolicy::kSecDcp: {
      uint32_t start = 0;
      for (uint32_t d = 0; d < domain; ++d) {
        start += secdcp_ways_[d];
      }
      *begin = start;
      *end = start + secdcp_ways_[domain];
      return;
    }
  }
  SNIC_CHECK(false);
}

void Cache::RebuildWayRanges() {
  if (shared_) {
    return;  // Access uses [0, associativity) directly
  }
  way_begin_.resize(config_.num_domains);
  way_end_.resize(config_.num_domains);
  for (uint32_t d = 0; d < config_.num_domains; ++d) {
    DomainWayRange(d, &way_begin_[d], &way_end_[d]);
  }
}

uint32_t Cache::WaysForDomain(uint32_t domain) const {
  uint32_t begin, end;
  DomainWayRange(domain, &begin, &end);
  return end - begin;
}

bool Cache::MissFill(uint64_t tag, uint32_t domain, size_t base,
                     uint32_t begin, uint32_t end) {
  ++stats_.misses;
  // Victim: first invalid way, else LRU within the allowed range (with
  // occasional random-way eviction under pseudo-LRU). Both rules collapse
  // into ONE scan through the lru==0-means-invalid invariant (see cache.h):
  // invalid ways hold tick 0, every valid way holds a tick >= 1, so the
  // first index of the minimum LRU tick is the first invalid way when one
  // exists and the reference's strict-`<` LRU victim otherwise.
  const uint64_t* lru = lru_.data() + base + begin;
  const uint32_t rel = cache_internal::MinIndex(lru, end - begin);
  const bool evicting = lru[rel] != 0;
  uint32_t victim = begin + rel;
  if (config_.pseudo_lru && evicting) {
    victim_lcg_ = victim_lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    if (((victim_lcg_ >> 33) & 7) == 0) {
      victim = begin + static_cast<uint32_t>((victim_lcg_ >> 36) %
                                             (end - begin));
    }
  }
  stats_.evictions += evicting ? 1 : 0;
  tags_[base + victim] = tag;
  domains_[base + victim] = domain;
  lru_[base + victim] = tick_;
  return false;
}

void Cache::FlushDomain(uint32_t domain) {
  const size_t total = tags_.size();
  for (size_t i = 0; i < total; ++i) {
    if (tags_[i] != kInvalidTag && domains_[i] == domain) {
      tags_[i] = kInvalidTag;
      lru_[i] = 0;  // lru==0-means-invalid invariant (victim scan)
    }
  }
}

void Cache::ResizeDomain(uint32_t domain, uint32_t ways) {
  SNIC_CHECK(config_.policy == PartitionPolicy::kSecDcp);
  SNIC_CHECK(domain < config_.num_domains);
  const uint32_t floor_ways = 1;
  const uint32_t max_ways =
      config_.associativity - (config_.num_domains - 1) * floor_ways;
  ways = std::clamp(ways, floor_ways, max_ways);
  secdcp_ways_[domain] = ways;
  // Spread the remaining ways over the other domains, each keeping >= 1.
  const uint32_t remaining = config_.associativity - ways;
  const uint32_t others = config_.num_domains - 1;
  if (others > 0) {
    const uint32_t base = remaining / others;
    uint32_t extra = remaining % others;
    for (uint32_t d = 0; d < config_.num_domains; ++d) {
      if (d == domain) {
        continue;
      }
      secdcp_ways_[d] = base + (extra > 0 ? 1 : 0);
      if (extra > 0) {
        --extra;
      }
    }
  }
  RebuildWayRanges();
  // Repartitioning invalidates everything: lines may now sit in ways their
  // owner can no longer reach (hardware would migrate or flush; we flush).
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(lru_.begin(), lru_.end(), 0);  // lru==0-means-invalid invariant
}

}  // namespace snic::sim
