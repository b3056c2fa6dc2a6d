// Cross-module property suites: parameterized sweeps asserting invariants
// that must hold for *every* configuration, not just the ones the paper
// evaluates — cache isolation under arbitrary geometry, TLB sizing vs a
// brute-force reference, algebraic laws of the big-integer engine, and
// replay determinism. Quote-serialization fuzz lives in
// fuzz_roundtrip_test.cc (QuoteFuzzTest).

#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/tlb_sizing.h"
#include "src/crypto/bignum.h"
#include "src/sim/cache.h"
#include "src/sim/replay.h"

namespace snic {
namespace {

// ---- Cache geometry sweep -----------------------------------------------------

struct CacheGeometry {
  uint64_t size_bytes;
  uint32_t associativity;
  uint32_t domains;
};

class CacheGeometryTest : public ::testing::TestWithParam<CacheGeometry> {};

TEST_P(CacheGeometryTest, AccessAfterAccessHits) {
  const CacheGeometry& g = GetParam();
  sim::CacheConfig config;
  config.size_bytes = g.size_bytes;
  config.associativity = g.associativity;
  config.num_domains = g.domains;
  config.policy = sim::PartitionPolicy::kStaticEqual;
  sim::Cache cache(config);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const uint64_t addr = rng.NextU64() % (1u << 24);
    const uint32_t domain = static_cast<uint32_t>(rng.NextBounded(g.domains));
    cache.Access(addr, domain);
    EXPECT_TRUE(cache.Access(addr, domain)) << addr;
  }
}

TEST_P(CacheGeometryTest, PartitionWaysSumToAssociativity) {
  const CacheGeometry& g = GetParam();
  sim::CacheConfig config;
  config.size_bytes = g.size_bytes;
  config.associativity = g.associativity;
  config.num_domains = g.domains;
  config.policy = sim::PartitionPolicy::kStaticEqual;
  sim::Cache cache(config);
  uint32_t total = 0;
  for (uint32_t d = 0; d < g.domains; ++d) {
    const uint32_t ways = cache.WaysForDomain(d);
    EXPECT_GE(ways, 1u);
    total += ways;
  }
  EXPECT_EQ(total, g.associativity);
}

TEST_P(CacheGeometryTest, HardPartitionNonInterferenceUnderAnyGeometry) {
  const CacheGeometry& g = GetParam();
  auto run = [&](bool other_domains_active) {
    sim::CacheConfig config;
    config.size_bytes = g.size_bytes;
    config.associativity = g.associativity;
    config.num_domains = g.domains;
    config.policy = sim::PartitionPolicy::kStaticEqual;
    sim::Cache cache(config);
    Rng rng(7);
    uint64_t hits = 0;
    for (int i = 0; i < 5'000; ++i) {
      hits += cache.Access((static_cast<uint64_t>(i) % 64) * 64, 0) ? 1 : 0;
      if (other_domains_active) {
        for (uint32_t d = 1; d < g.domains; ++d) {
          cache.Access(rng.NextU64() % (1u << 26), d);
        }
      }
    }
    return hits;
  };
  EXPECT_EQ(run(false), run(true));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(CacheGeometry{8 << 10, 4, 2},
                      CacheGeometry{32 << 10, 8, 3},
                      CacheGeometry{256 << 10, 16, 4},
                      CacheGeometry{1 << 20, 16, 16},
                      CacheGeometry{4 << 20, 16, 5}),
    [](const ::testing::TestParamInfo<CacheGeometry>& param_info) {
      return std::to_string(param_info.param.size_bytes >> 10) + "KB_" +
             std::to_string(param_info.param.associativity) + "way_" +
             std::to_string(param_info.param.domains) + "dom";
    });

// ---- TLB sizing vs brute force --------------------------------------------------

// The algorithm's contract (Table 6 caption: "we try to minimize the amount
// of wasted memory"): waste is bounded by one smallest page, and among all
// covers with no more waste than greedy's, greedy uses the fewest entries.
// The menus are canonical (each page size divides the next), which is what
// makes the greedy choice optimal under the waste constraint.
uint64_t MinEntriesWithWasteBound(uint64_t bytes, uint64_t mapped_budget,
                                  const core::PageSizeMenu& menu) {
  const auto& sizes = menu.page_bytes;
  const uint64_t smallest = sizes.front();
  uint64_t best = UINT64_MAX;
  const uint64_t max_large =
      sizes.size() > 1 ? mapped_budget / sizes.back() : 0;
  for (uint64_t large = 0; large <= max_large; ++large) {
    const uint64_t large_bytes = large * sizes.back();
    const uint64_t max_mid =
        sizes.size() > 2 ? (mapped_budget - large_bytes) / sizes[1] : 0;
    for (uint64_t mid = 0; mid <= max_mid; ++mid) {
      const uint64_t covered = large_bytes + mid * sizes[1];
      const uint64_t small =
          covered >= bytes ? 0 : (bytes - covered + smallest - 1) / smallest;
      const uint64_t mapped = covered + small * smallest;
      if (mapped >= bytes && mapped <= mapped_budget) {
        best = std::min(best, large + mid + small);
      }
    }
    if (sizes.size() <= 2) {
      const uint64_t small = large_bytes >= bytes
                                 ? 0
                                 : (bytes - large_bytes + smallest - 1) /
                                       smallest;
      const uint64_t mapped = large_bytes + small * smallest;
      if (mapped >= bytes && mapped <= mapped_budget) {
        best = std::min(best, large + small);
      }
    }
  }
  return best;
}

TEST(TlbSizingPropertyTest, GreedyAchievesMinimalWasteExactly) {
  // For canonical menus (each size divides the next) every cover's total is
  // a multiple of the smallest page, so the least feasible mapped size is
  // ceil(bytes/smallest)*smallest — and greedy must hit it exactly. That is
  // the Table 6 objective ("minimize the amount of wasted memory").
  Rng rng(11);
  for (const auto& menu : {core::PageSizeMenu::Equal(),
                           core::PageSizeMenu::FlexLow(),
                           core::PageSizeMenu::FlexHigh()}) {
    const uint64_t smallest = menu.page_bytes.front();
    for (int i = 0; i < 60; ++i) {
      const uint64_t bytes = 1 + rng.NextU64() % (400ull << 20);
      const core::PagePlan plan = core::PlanRegion(bytes, menu);
      EXPECT_EQ(plan.mapped_bytes, CeilDiv(bytes, smallest) * smallest)
          << menu.name << " bytes=" << bytes;
      // Entry-count sanity bounds.
      EXPECT_LE(plan.entries, CeilDiv(bytes, smallest));
      EXPECT_GE(plan.entries, CeilDiv(bytes, menu.page_bytes.back()));
    }
  }
}

TEST(TlbSizingPropertyTest, GreedyEntryCountNearOptimalUnderEqualWaste) {
  // Among covers with the same (minimal) waste, greedy can be beaten on
  // entry count only by trading a run of mid-size pages for one larger page
  // — never by more than one larger page's worth. Verify the bound against
  // the exhaustive reference.
  Rng rng(12);
  for (const auto& menu :
       {core::PageSizeMenu::FlexLow(), core::PageSizeMenu::FlexHigh()}) {
    for (int i = 0; i < 40; ++i) {
      const uint64_t bytes = 1 + rng.NextU64() % (400ull << 20);
      const core::PagePlan plan = core::PlanRegion(bytes, menu);
      const uint64_t reference =
          MinEntriesWithWasteBound(bytes, plan.mapped_bytes, menu);
      EXPECT_GE(plan.entries, reference);
      // Greedy's excess is bounded by one mid-tier run per size step:
      // ratio(next/size) - 1 entries per step.
      uint64_t bound = reference;
      for (size_t s = 0; s + 1 < menu.page_bytes.size(); ++s) {
        bound += menu.page_bytes[s + 1] / menu.page_bytes[s] - 1;
      }
      EXPECT_LE(plan.entries, bound) << menu.name << " bytes=" << bytes;
    }
  }
}

// ---- BigUint algebraic laws -----------------------------------------------------

TEST(BigUintPropertyTest, PowModExponentAddition) {
  // a^(x+y) = a^x * a^y (mod p)
  Rng rng(13);
  const crypto::BigUint p(1000003);
  for (int i = 0; i < 50; ++i) {
    const crypto::BigUint a(2 + rng.NextBounded(1000000));
    const crypto::BigUint x(rng.NextBounded(5000));
    const crypto::BigUint y(rng.NextBounded(5000));
    const auto lhs =
        crypto::BigUint::PowMod(a, crypto::BigUint::Add(x, y), p);
    const auto rhs = crypto::BigUint::MulMod(crypto::BigUint::PowMod(a, x, p),
                                             crypto::BigUint::PowMod(a, y, p),
                                             p);
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(BigUintPropertyTest, MulDistributesOverAdd) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    const auto a = crypto::BigUint::RandomWithBits(100, rng);
    const auto b = crypto::BigUint::RandomWithBits(90, rng);
    const auto c = crypto::BigUint::RandomWithBits(80, rng);
    const auto lhs = crypto::BigUint::Mul(a, crypto::BigUint::Add(b, c));
    const auto rhs = crypto::BigUint::Add(crypto::BigUint::Mul(a, b),
                                          crypto::BigUint::Mul(a, c));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(BigUintPropertyTest, SubInvertsAdd) {
  Rng rng(15);
  for (int i = 0; i < 200; ++i) {
    const auto a = crypto::BigUint::RandomWithBits(1 + i % 200, rng);
    const auto b = crypto::BigUint::RandomWithBits(1 + (i * 7) % 150, rng);
    EXPECT_EQ(crypto::BigUint::Sub(crypto::BigUint::Add(a, b), b), a);
  }
}

TEST(BigUintPropertyTest, HexRoundTripRandom) {
  Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    const auto v = crypto::BigUint::RandomWithBits(1 + i * 3, rng);
    EXPECT_EQ(crypto::BigUint::FromHex(v.ToHex()), v);
    EXPECT_EQ(crypto::BigUint::FromBytes(std::span<const uint8_t>(
                  v.ToBytes().data(), v.ToBytes().size())),
              v);
  }
}

// ---- Replay determinism ----------------------------------------------------------

TEST(ReplayPropertyTest, DeterministicAcrossRuns) {
  sim::InstructionTrace t1, t2;
  Rng rng(17);
  for (int i = 0; i < 5'000; ++i) {
    t1.RecordCompute(static_cast<uint32_t>(rng.NextBounded(30)));
    t1.RecordAccess(rng.NextU64() % (1 << 24), sim::AccessType::kRead);
    t2.RecordCompute(static_cast<uint32_t>(rng.NextBounded(10)));
    t2.RecordAccess(rng.NextU64() % (1 << 22), sim::AccessType::kWrite);
  }
  const auto config = sim::MachineConfig::MarvellLike(2, 1 << 20, true);
  const std::vector<const sim::InstructionTrace*> traces = {&t1, &t2};
  const auto r1 = sim::Replay(config, traces, 0.2);
  const auto r2 = sim::Replay(config, traces, 0.2);
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(r1.cores[c].cycles, r2.cores[c].cycles);
    EXPECT_EQ(r1.cores[c].instructions, r2.cores[c].instructions);
    EXPECT_EQ(r1.cores[c].l2_misses, r2.cores[c].l2_misses);
  }
}

TEST(ReplayPropertyTest, IpcNeverExceedsOne) {
  Rng rng(18);
  for (uint32_t cores : {1u, 3u, 8u}) {
    std::vector<sim::InstructionTrace> traces(cores);
    for (auto& t : traces) {
      for (int i = 0; i < 2'000; ++i) {
        t.RecordCompute(static_cast<uint32_t>(rng.NextBounded(50)));
        t.RecordAccess(rng.NextU64() % (1 << 26), sim::AccessType::kRead);
      }
    }
    for (bool secure : {false, true}) {
      const auto result = sim::Replay(
          sim::MachineConfig::MarvellLike(cores, 4 << 20, secure), traces,
          0.1);
      for (const auto& core : result.cores) {
        EXPECT_LE(core.Ipc(), 1.0);
        EXPECT_GT(core.Ipc(), 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace snic
