// Tests for the TLB sizing algorithm — pinned against every entry-count cell
// of the paper's Table 6 (and thereby Table 5's maxima).

#include <gtest/gtest.h>

#include <ostream>

#include "src/common/units.h"
#include "src/core/tlb_sizing.h"

namespace snic::core {
namespace {

// Table 6 rows: regions {text, data, code, heap&stack} in MB and the
// published entry counts for (Equal, Flex-low, Flex-high).
struct Table6Row {
  const char* nf;
  double text, data, code, heap;
  uint64_t equal, flex_low, flex_high;
  // Flex-low published counts come from sizes the paper rounds to 0.01 MB;
  // two rows land one off under exact arithmetic.
  uint64_t flex_low_slack;
};

// Print the row by name: gtest's default byte dump would put the address of
// `nf` into the listed test name, which then changes with every build.
void PrintTo(const Table6Row& row, std::ostream* os) { *os << row.nf; }

class Table6Test : public ::testing::TestWithParam<Table6Row> {};

TEST_P(Table6Test, EntryCountsReproduce) {
  const Table6Row& row = GetParam();
  const std::vector<double> regions = {row.text, row.data, row.code, row.heap};
  EXPECT_EQ(EntriesForRegionsMib(regions, PageSizeMenu::Equal()), row.equal)
      << row.nf << " Equal";
  EXPECT_NEAR(
      static_cast<double>(EntriesForRegionsMib(regions, PageSizeMenu::FlexLow())),
      static_cast<double>(row.flex_low), static_cast<double>(row.flex_low_slack))
      << row.nf << " Flex-low";
  EXPECT_EQ(EntriesForRegionsMib(regions, PageSizeMenu::FlexHigh()),
            row.flex_high)
      << row.nf << " Flex-high";
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table6Test,
    ::testing::Values(
        Table6Row{"FW", 0.87, 0.08, 2.50, 13.75, 11, 34, 11, 1},
        Table6Row{"DPI", 1.34, 0.56, 2.59, 46.65, 28, 51, 13, 0},
        Table6Row{"NAT", 0.86, 0.05, 2.49, 40.48, 25, 37, 10, 0},
        Table6Row{"LB", 0.86, 0.05, 2.49, 10.40, 10, 22, 10, 0},
        Table6Row{"LPM", 0.86, 0.06, 2.51, 64.90, 37, 23, 7, 0},
        Table6Row{"Mon", 0.85, 0.05, 2.48, 357.15, 183, 46, 12, 0}),
    [](const ::testing::TestParamInfo<Table6Row>& param_info) {
      return param_info.param.nf;
    });

TEST(PlanRegionTest, EmptyRegionNoEntries) {
  EXPECT_EQ(PlanRegion(0, PageSizeMenu::Equal()).entries, 0u);
}

TEST(PlanRegionTest, ExactFit) {
  const PagePlan plan = PlanRegion(MiB(4), PageSizeMenu::Equal());
  EXPECT_EQ(plan.entries, 2u);
  EXPECT_EQ(plan.mapped_bytes, MiB(4));
}

TEST(PlanRegionTest, SliverCoveredBySmallestPage) {
  const PagePlan plan = PlanRegion(MiB(2) + 1, PageSizeMenu::Equal());
  EXPECT_EQ(plan.entries, 2u);
  EXPECT_EQ(plan.mapped_bytes, MiB(4));
}

TEST(PlanRegionTest, GreedyUsesLargePagesFirst) {
  // 357.15 MB under Flex-high: 2x128M + 3x32M + 2x2M + 1x2M sliver = 8.
  const PagePlan plan =
      PlanRegion(MiBToBytes(357.15), PageSizeMenu::FlexHigh());
  EXPECT_EQ(plan.entries, 8u);
  EXPECT_GE(plan.mapped_bytes, MiBToBytes(357.15));
}

TEST(PlanRegionTest, MappedNeverLessThanRegion) {
  for (uint64_t bytes : {uint64_t{1}, KiB(100), MiB(1), MiB(3) + 12345,
                         MiB(100) + 1, MiB(500)}) {
    for (const auto& menu : {PageSizeMenu::Equal(), PageSizeMenu::FlexLow(),
                             PageSizeMenu::FlexHigh()}) {
      const PagePlan plan = PlanRegion(bytes, menu);
      EXPECT_GE(plan.mapped_bytes, bytes) << menu.name << " " << bytes;
      EXPECT_GT(plan.entries, 0u);
    }
  }
}

TEST(PlanRegionTest, WasteBoundedBySmallestPage) {
  // Greedy largest-fit waste is < one smallest page (per region).
  for (uint64_t bytes = MiB(1); bytes < MiB(300); bytes = bytes * 3 / 2 + 7) {
    const PagePlan plan = PlanRegion(bytes, PageSizeMenu::FlexHigh());
    EXPECT_LT(plan.mapped_bytes - bytes, MiB(2)) << bytes;
  }
}

TEST(PlanRegionTest, RicherMenuNeverNeedsMorePages) {
  // Flex-high's menu is a superset of Equal's, so it can never need more
  // entries for the same region.
  for (uint64_t bytes = MiB(1); bytes < MiB(400); bytes = bytes * 2 + 333) {
    EXPECT_LE(PlanRegion(bytes, PageSizeMenu::FlexHigh()).entries,
              PlanRegion(bytes, PageSizeMenu::Equal()).entries)
        << bytes;
  }
}

TEST(Table5Test, MaximaAcrossNfs) {
  // Table 5 reports the max entries any NF needs: Equal 183 (Mon),
  // (128K,2M,64M) 51 (DPI), (2M,32M,128M) 13 (DPI).
  const std::vector<std::vector<double>> rows = {
      {0.87, 0.08, 2.50, 13.75}, {1.34, 0.56, 2.59, 46.65},
      {0.86, 0.05, 2.49, 40.48}, {0.86, 0.05, 2.49, 10.40},
      {0.86, 0.06, 2.51, 64.90}, {0.85, 0.05, 2.48, 357.15}};
  uint64_t max_equal = 0, max_low = 0, max_high = 0;
  for (const auto& regions : rows) {
    max_equal = std::max(max_equal,
                         EntriesForRegionsMib(regions, PageSizeMenu::Equal()));
    max_low = std::max(max_low,
                       EntriesForRegionsMib(regions, PageSizeMenu::FlexLow()));
    max_high = std::max(
        max_high, EntriesForRegionsMib(regions, PageSizeMenu::FlexHigh()));
  }
  EXPECT_EQ(max_equal, 183u);
  EXPECT_EQ(max_low, 51u);
  EXPECT_EQ(max_high, 13u);
}

TEST(MenuTest, MenusAscendingAndNamed) {
  for (const auto& menu : {PageSizeMenu::Equal(), PageSizeMenu::FlexLow(),
                           PageSizeMenu::FlexHigh()}) {
    EXPECT_FALSE(menu.name.empty());
    EXPECT_TRUE(
        std::is_sorted(menu.page_bytes.begin(), menu.page_bytes.end()));
  }
}

}  // namespace
}  // namespace snic::core
