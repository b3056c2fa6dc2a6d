// Tests for the cache model: hit/miss mechanics, LRU, partitioning policies,
// and the isolation property the partitioned configurations must provide.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/cache.h"

namespace snic::sim {
namespace {

CacheConfig SmallConfig(PartitionPolicy policy, uint32_t domains) {
  CacheConfig c;
  c.size_bytes = 8 * 1024;  // 8 KB
  c.line_bytes = 64;
  c.associativity = 4;
  c.policy = policy;
  c.num_domains = domains;
  return c;
}

TEST(CacheTest, ColdMissThenHit) {
  Cache cache(SmallConfig(PartitionPolicy::kShared, 1));
  EXPECT_FALSE(cache.Access(0x1000, 0));
  EXPECT_TRUE(cache.Access(0x1000, 0));
  EXPECT_TRUE(cache.Access(0x1020, 0));  // same 64 B line
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// The hit scan builds one 64-bit match mask per set, so construction
// rejects anything wider.
TEST(CacheDeathTest, RejectsMoreThanSixtyFourWays) {
  CacheConfig c = SmallConfig(PartitionPolicy::kShared, 1);
  c.associativity = 64;
  c.size_bytes = 64 * 64 * 2;
  EXPECT_EQ(Cache(c).num_sets(), 2u);
  c.associativity = 65;
  c.size_bytes = 65 * 64;
  EXPECT_DEATH(Cache{c}, "associativity <= 64");
}

TEST(CacheTest, LruEvictsOldest) {
  Cache cache(SmallConfig(PartitionPolicy::kShared, 1));
  const uint32_t sets = cache.num_sets();
  // Fill one set with 4 distinct tags, then a 5th evicts the first.
  const uint64_t stride = static_cast<uint64_t>(sets) * 64;
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(cache.Access(i * stride, 0));
  }
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(cache.Access(i * stride, 0));
  }
  EXPECT_FALSE(cache.Access(4 * stride, 0));
  EXPECT_FALSE(cache.Access(0, 0));  // 0 was LRU after the touch sequence? No:
  // after hits in order 0..3 and inserting 4 (evicting 0), 0 misses again.
}

TEST(CacheTest, WorkingSetWithinCapacityAllHitsAfterWarmup) {
  Cache cache(SmallConfig(PartitionPolicy::kShared, 1));
  for (uint64_t addr = 0; addr < 8 * 1024; addr += 64) {
    cache.Access(addr, 0);
  }
  cache.ResetStats();
  for (uint64_t addr = 0; addr < 8 * 1024; addr += 64) {
    EXPECT_TRUE(cache.Access(addr, 0));
  }
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(CacheTest, StaticPartitionSplitsWays) {
  Cache cache(SmallConfig(PartitionPolicy::kStaticEqual, 2));
  EXPECT_EQ(cache.WaysForDomain(0), 2u);
  EXPECT_EQ(cache.WaysForDomain(1), 2u);
}

TEST(CacheTest, StaticPartitionUnevenDomainsGetExtra) {
  Cache cache(SmallConfig(PartitionPolicy::kStaticEqual, 3));
  EXPECT_EQ(cache.WaysForDomain(0), 2u);
  EXPECT_EQ(cache.WaysForDomain(1), 1u);
  EXPECT_EQ(cache.WaysForDomain(2), 1u);
  EXPECT_EQ(cache.WaysForDomain(0) + cache.WaysForDomain(1) +
                cache.WaysForDomain(2),
            4u);
}

// The isolation property: under hard partitioning, domain B's accesses can
// never evict (or hit) domain A's lines, so A's hit/miss sequence is
// independent of B's behaviour.
TEST(CacheTest, HardPartitionNonInterference) {
  const auto run_domain_a = [](bool b_active) {
    Cache cache(SmallConfig(PartitionPolicy::kStaticEqual, 2));
    Rng rng(99);
    uint64_t a_hits = 0;
    for (int i = 0; i < 20'000; ++i) {
      // Domain A: a small loop that fits its two ways.
      const uint64_t a_addr = (static_cast<uint64_t>(i) % 32) * 64;
      a_hits += cache.Access(a_addr, 0) ? 1 : 0;
      if (b_active) {
        // Domain B: a cache-thrashing scan.
        cache.Access(rng.NextU64() % (1 << 22), 1);
      }
    }
    return a_hits;
  };
  EXPECT_EQ(run_domain_a(false), run_domain_a(true));
}

// The converse: in a shared cache, a thrashing domain B visibly degrades A.
TEST(CacheTest, SharedCacheInterferes) {
  const auto run_domain_a = [](bool b_active) {
    Cache cache(SmallConfig(PartitionPolicy::kShared, 2));
    Rng rng(99);
    uint64_t a_hits = 0;
    for (int i = 0; i < 20'000; ++i) {
      const uint64_t a_addr = (static_cast<uint64_t>(i) % 64) * 64;
      a_hits += cache.Access(a_addr, 0) ? 1 : 0;
      if (b_active) {
        cache.Access(rng.NextU64() % (1 << 22), 1);
      }
    }
    return a_hits;
  };
  EXPECT_GT(run_domain_a(false), run_domain_a(true) + 1000);
}

TEST(CacheTest, FlushDomainRemovesOnlyThatDomain) {
  Cache cache(SmallConfig(PartitionPolicy::kStaticEqual, 2));
  cache.Access(0x0, 0);
  cache.Access(0x10000, 1);
  cache.FlushDomain(0);
  cache.ResetStats();
  EXPECT_FALSE(cache.Access(0x0, 0));     // flushed
  EXPECT_TRUE(cache.Access(0x10000, 1));  // untouched
}

TEST(CacheTest, SecDcpResizeTakesEffect) {
  CacheConfig config = SmallConfig(PartitionPolicy::kSecDcp, 2);
  Cache cache(config);
  EXPECT_EQ(cache.WaysForDomain(0), 2u);
  cache.ResizeDomain(0, 3);
  EXPECT_EQ(cache.WaysForDomain(0), 3u);
  EXPECT_EQ(cache.WaysForDomain(1), 1u);
}

TEST(CacheTest, SecDcpResizeClampsToFloor) {
  Cache cache(SmallConfig(PartitionPolicy::kSecDcp, 2));
  cache.ResizeDomain(0, 100);  // clamped: domain 1 keeps >= 1 way
  EXPECT_EQ(cache.WaysForDomain(0), 3u);
  EXPECT_EQ(cache.WaysForDomain(1), 1u);
  cache.ResizeDomain(0, 0);  // clamped up to 1
  EXPECT_EQ(cache.WaysForDomain(0), 1u);
}

TEST(CacheTest, EvictionCounted) {
  Cache cache(SmallConfig(PartitionPolicy::kShared, 1));
  const uint64_t stride = static_cast<uint64_t>(cache.num_sets()) * 64;
  for (uint64_t i = 0; i < 5; ++i) {
    cache.Access(i * stride, 0);
  }
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// Full-way conflict inside one partition: a domain that owns 2 of 4 ways
// cycling 3 conflicting lines must evict on every access after warmup, and
// every eviction must land inside its own window (the other domain's
// resident line survives the whole storm).
TEST(CacheTest, ConflictStormStaysInsidePartitionWindow) {
  Cache cache(SmallConfig(PartitionPolicy::kStaticEqual, 2));
  const uint64_t stride = static_cast<uint64_t>(cache.num_sets()) * 64;
  cache.Access(7 * stride, 1);  // domain 1 parks a line in the same set
  cache.ResetStats();
  for (uint64_t round = 0; round < 12; ++round) {
    // 3 tags > 2 ways: strict LRU turns the cycle into an all-miss loop.
    cache.Access((round % 3) * stride, 0);
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 12u);
  EXPECT_EQ(cache.stats().evictions, 10u);  // first 2 fills take empty ways
  EXPECT_TRUE(cache.Access(7 * stride, 1));  // domain 1 was never touched
}

// The way window boundary: with 3 domains over 4 ways the windows are
// [0,2), [2,3), [3,4). The single-way domains behave as direct-mapped
// caches — two alternating tags never stick — while the 2-way domain holds
// both. Guards the begin/end offsets the masked scans and MissFill use.
TEST(CacheTest, PartitionBoundaryWindowsAreExact) {
  Cache cache(SmallConfig(PartitionPolicy::kStaticEqual, 3));
  const uint64_t stride = static_cast<uint64_t>(cache.num_sets()) * 64;
  for (int round = 0; round < 4; ++round) {
    cache.Access(0 * stride, 1);
    cache.Access(1 * stride, 1);  // evicts the other: window is one way
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.ResetStats();
  for (int round = 0; round < 4; ++round) {
    cache.Access(0 * stride, 0);
    cache.Access(1 * stride, 0);  // 2-way window: both fit
  }
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 6u);
  // Domain 2's single way at the top boundary is still empty: filling it
  // must evict nothing from domains 0/1.
  cache.ResetStats();
  cache.Access(5 * stride, 2);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.Access(0 * stride, 0));
  EXPECT_TRUE(cache.Access(1 * stride, 0));
}

// Associativity 1: every set is a single way, so the victim scan degenerates
// to "the one way" and every conflicting access evicts. The mask scans must
// handle n == 1 (a 1-bit mask) without touching neighbouring ways.
TEST(CacheTest, SingleWaySetsBehaveDirectMapped) {
  CacheConfig config;
  config.size_bytes = 4 * 1024;
  config.line_bytes = 64;
  config.associativity = 1;
  config.policy = PartitionPolicy::kShared;
  config.num_domains = 1;
  Cache cache(config);
  EXPECT_EQ(cache.num_sets(), 64u);
  const uint64_t stride = static_cast<uint64_t>(cache.num_sets()) * 64;
  EXPECT_FALSE(cache.Access(0, 0));
  EXPECT_TRUE(cache.Access(0, 0));
  EXPECT_FALSE(cache.Access(stride, 0));   // evicts tag 0
  EXPECT_FALSE(cache.Access(0, 0));        // evicts tag 1
  EXPECT_EQ(cache.stats().evictions, 2u);
  // Neighbouring sets are independent single-line caches.
  EXPECT_FALSE(cache.Access(64, 0));
  EXPECT_TRUE(cache.Access(64, 0));
  EXPECT_TRUE(cache.Access(0, 0));
}

}  // namespace
}  // namespace snic::sim
