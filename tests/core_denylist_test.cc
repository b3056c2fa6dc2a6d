// Tests for the memory denylist implementations (footnote-1 bitmap vs page
// table variants) and the physical memory ownership substrate.

#include <memory>

#include <gtest/gtest.h>

#include "src/core/denylist.h"
#include "src/core/physical_memory.h"

namespace snic::core {
namespace {

// Which footnote-1 representation a parameterized case runs against.
enum class DenylistKind { kBitmap, kPageTable };

std::unique_ptr<MemoryDenylist> MakeDenylist(DenylistKind kind,
                                             uint64_t total_pages) {
  if (kind == DenylistKind::kBitmap) {
    return std::make_unique<BitmapDenylist>(total_pages);
  }
  return std::make_unique<PageTableDenylist>(total_pages);
}

class DenylistTest : public ::testing::TestWithParam<DenylistKind> {};

TEST_P(DenylistTest, DenyAllowCycle) {
  auto denylist = MakeDenylist(GetParam(), 4096);
  EXPECT_FALSE(denylist->IsDenied(100));
  denylist->Deny(100);
  EXPECT_TRUE(denylist->IsDenied(100));
  EXPECT_FALSE(denylist->IsDenied(101));
  denylist->Allow(100);
  EXPECT_FALSE(denylist->IsDenied(100));
}

TEST_P(DenylistTest, CountTracksDistinctPages) {
  auto denylist = MakeDenylist(GetParam(), 4096);
  denylist->Deny(1);
  denylist->Deny(2);
  denylist->Deny(1);  // idempotent
  EXPECT_EQ(denylist->denied_count(), 2u);
  denylist->Allow(1);
  denylist->Allow(3);  // not denied: no-op
  EXPECT_EQ(denylist->denied_count(), 1u);
}

TEST_P(DenylistTest, SparseAndDensePatterns) {
  auto denylist = MakeDenylist(GetParam(), 1 << 20);
  for (uint64_t page = 0; page < (1 << 20); page += 4099) {
    denylist->Deny(page);
  }
  for (uint64_t page = 0; page < (1 << 20); ++page) {
    EXPECT_EQ(denylist->IsDenied(page), page % 4099 == 0) << page;
    if (page > 100'000) {
      break;  // bounded runtime; pattern verified over a prefix
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothKinds, DenylistTest,
                         ::testing::Values(DenylistKind::kBitmap,
                                           DenylistKind::kPageTable),
                         [](const ::testing::TestParamInfo<DenylistKind>& i) {
                           return i.param == DenylistKind::kBitmap
                                      ? "Bitmap"
                                      : "PageTable";
                         });

TEST(DenylistTradeoffTest, BitmapFasterPageTableSmallerWhenSparse) {
  // The footnote-1 trade: bitmap = 1 hardware step but full-size state;
  // page-table walk = 2 steps but state proportional to populated leaves.
  const uint64_t pages = 1 << 20;  // 2 TB of 2 MB pages
  BitmapDenylist bitmap(pages);
  PageTableDenylist table(pages);
  EXPECT_LT(bitmap.LookupSteps(), table.LookupSteps());
  // Sparse occupancy: one function's 64 pages.
  for (uint64_t p = 0; p < 64; ++p) {
    bitmap.Deny(p);
    table.Deny(p);
  }
  EXPECT_LT(table.StateBytes(), bitmap.StateBytes());
}

TEST(PhysicalMemoryTest, ReadWriteRoundTrip) {
  PhysicalMemory memory(16ull << 20, 2ull << 20);
  const std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  memory.Write(100, std::span<const uint8_t>(data.data(), data.size()));
  std::vector<uint8_t> out(5);
  memory.Read(100, std::span<uint8_t>(out.data(), out.size()));
  EXPECT_EQ(out, data);
}

TEST(PhysicalMemoryTest, UntouchedPagesReadZero) {
  PhysicalMemory memory(16ull << 20, 2ull << 20);
  EXPECT_EQ(memory.ReadByte(5ull << 20), 0);
}

TEST(PhysicalMemoryTest, CrossPageAccess) {
  PhysicalMemory memory(16ull << 20, 2ull << 20);
  std::vector<uint8_t> data(4096, 0xab);
  const uint64_t addr = (2ull << 20) - 2048;  // straddles pages 0 and 1
  memory.Write(addr, std::span<const uint8_t>(data.data(), data.size()));
  std::vector<uint8_t> out(4096);
  memory.Read(addr, std::span<uint8_t>(out.data(), out.size()));
  EXPECT_EQ(out, data);
}

TEST(PhysicalMemoryTest, ZeroPageScrubs) {
  PhysicalMemory memory(16ull << 20, 2ull << 20);
  memory.WriteByte(0, 0xff);
  memory.ZeroPage(0);
  EXPECT_EQ(memory.ReadByte(0), 0);
}

TEST(PhysicalMemoryTest, WrittenMarkRisesWithWritesAndResetsOnZero) {
  PhysicalMemory memory(16ull << 20, 2ull << 20);
  const uint64_t page_bytes = memory.page_bytes();
  EXPECT_TRUE(memory.WrittenPrefix(1).empty());  // never written
  memory.WriteByte(page_bytes + 99, 0x7);
  EXPECT_EQ(memory.WrittenPrefix(1).size(), 100u);
  // A lower write leaves the mark where it is.
  memory.WriteByte(page_bytes + 10, 0x8);
  ASSERT_EQ(memory.WrittenPrefix(1).size(), 100u);
  EXPECT_EQ(memory.WrittenPrefix(1)[10], 0x8);
  EXPECT_EQ(memory.WrittenPrefix(1)[50], 0x0);  // the gap reads zero
  EXPECT_EQ(memory.WrittenPrefix(1)[99], 0x7);
  // Writing zeros still raises it.
  const std::vector<uint8_t> zeros(400, 0);
  memory.Write(page_bytes + 200, std::span<const uint8_t>(zeros));
  EXPECT_EQ(memory.WrittenPrefix(1).size(), 600u);
  // A write that straddles a boundary raises both pages' marks.
  const std::vector<uint8_t> data(8, 0xab);
  memory.Write(page_bytes - 3, std::span<const uint8_t>(data));
  EXPECT_EQ(memory.WrittenPrefix(0).size(), page_bytes);
  EXPECT_EQ(memory.WrittenPrefix(1).size(), 600u);
  memory.ZeroPage(1);
  EXPECT_TRUE(memory.WrittenPrefix(1).empty());
  memory.WriteByte(page_bytes + 4, 0x9);
  EXPECT_EQ(memory.WrittenPrefix(1).size(), 5u);
  EXPECT_TRUE(memory.WrittenPrefix(2).empty());
}

TEST(PhysicalMemoryTest, ReadsPastTheWrittenMarkAreZero) {
  PhysicalMemory memory(16ull << 20, 2ull << 20);
  const std::vector<uint8_t> data(64, 0xcd);
  memory.Write(32, std::span<const uint8_t>(data));
  // One read from before the prefix's end to well past it.
  std::vector<uint8_t> out(256, 0xee);
  memory.Read(64, std::span<uint8_t>(out));
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i < 32 ? 0xcd : 0x00) << "byte " << i;
  }
  // And one that starts past it.
  std::vector<uint8_t> past(16, 0xee);
  memory.Read(4096, std::span<uint8_t>(past));
  EXPECT_EQ(past, std::vector<uint8_t>(16, 0));
}

TEST(PhysicalMemoryTest, OwnershipLifecycle) {
  PhysicalMemory memory(16ull << 20, 2ull << 20);
  EXPECT_EQ(memory.OwnerOf(0), kPageFree);
  const auto pages = memory.AllocatePages(3, 77);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(pages.value().size(), 3u);
  for (uint64_t p : pages.value()) {
    EXPECT_EQ(memory.OwnerOf(p), 77u);
  }
  EXPECT_EQ(memory.PagesOwnedBy(77).size(), 3u);
  memory.SetOwner(pages.value()[0], kPageFree);
  EXPECT_EQ(memory.PagesOwnedBy(77).size(), 2u);
}

TEST(PhysicalMemoryTest, AllocationExhaustsAtomically) {
  PhysicalMemory memory(8ull << 20, 2ull << 20);  // 4 pages
  ASSERT_TRUE(memory.AllocatePages(3, 1).ok());
  const auto too_many = memory.AllocatePages(2, 2);
  EXPECT_FALSE(too_many.ok());
  // The failed request took nothing.
  EXPECT_EQ(memory.PagesOwnedBy(2).size(), 0u);
  EXPECT_TRUE(memory.AllocatePages(1, 3).ok());
}

}  // namespace
}  // namespace snic::core
