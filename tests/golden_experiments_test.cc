// Golden regression pins for the analytically exact EXPERIMENTS.md cells.
//
// The Fig. 5 replays depend on traces and timing and are covered by shape
// checks elsewhere; the cells pinned here are pure arithmetic over published
// inputs (TLB sizing, the calibrated CAM cost model, and the TCO model), so
// they must reproduce to the printed precision on every machine. A failure
// means a model constant or sizing rule drifted, not noise.
//
// Expected values are the "Measured" columns of EXPERIMENTS.md Tables 2-5
// and the TCO section, plus two simulated results that are deterministic
// by construction: the §4.8 underutilization ablation and the §4.5
// watermark decoder. Those two pin the fixed autoscaler thresholds and
// watermark parameters to the exact cells their benches print.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/accel/accelerator.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/core/tlb_sizing.h"
#include "src/core/vpp.h"
#include "src/core/watermark.h"
#include "src/hwmodel/tco.h"
#include "src/hwmodel/tlb_cost.h"
#include "src/mgmt/autoscaler.h"

namespace snic {
namespace {

using core::PageSizeMenu;
using core::PlanRegion;
using hwmodel::A9Baseline;
using hwmodel::A9TotalWith;
using hwmodel::ComputeTco;
using hwmodel::EntriesFor2MbPages;
using hwmodel::TlbBanksCost;
using hwmodel::TlbCost;

// Matches a cost cell to the 3-decimal precision EXPERIMENTS.md prints.
constexpr double kCellTol = 6e-4;

TEST(GoldenTable2, EntryCountsFor2MbPages) {
  EXPECT_EQ(EntriesFor2MbPages(366.0), 183u);
  EXPECT_EQ(EntriesFor2MbPages(512.0), 256u);
  EXPECT_EQ(EntriesFor2MbPages(1024.0), 512u);
}

TEST(GoldenTable2, FourCoreTlbCostCells) {
  const TlbCost c183 = TlbBanksCost(183, 4);
  EXPECT_NEAR(c183.area_mm2, 0.044, kCellTol);
  EXPECT_NEAR(c183.power_w, 0.026, kCellTol);

  const TlbCost c256 = TlbBanksCost(256, 4);
  EXPECT_NEAR(c256.area_mm2, 0.060, kCellTol);
  EXPECT_NEAR(c256.power_w, 0.037, kCellTol);

  const TlbCost c512 = TlbBanksCost(512, 4);
  EXPECT_NEAR(c512.area_mm2, 0.163, kCellTol);
  EXPECT_NEAR(c512.power_w, 0.084, kCellTol);
}

TEST(GoldenTable2, A9Totals) {
  const A9Baseline a9;
  const TlbCost t183 = A9TotalWith(a9, TlbBanksCost(183, 4));
  EXPECT_NEAR(t183.area_mm2, 4.983, kCellTol);
  EXPECT_NEAR(t183.power_w, 1.909, kCellTol);

  const TlbCost t512 = A9TotalWith(a9, TlbBanksCost(512, 4));
  EXPECT_NEAR(t512.area_mm2, 5.102, kCellTol);
  EXPECT_NEAR(t512.power_w, 1.967, kCellTol);
}

// Per-cluster accelerator TLB sizes derived from the Table 7 profiles by the
// 2 MB-page fill rule (table3_accel_tlb_costs does the same arithmetic).
size_t EntriesForProfile(const accel::AcceleratorMemoryProfile& profile) {
  size_t entries = 0;
  const auto menu = PageSizeMenu::Equal();
  for (const auto& region : profile.regions) {
    entries += PlanRegion(region.bytes, menu).entries;
  }
  return entries;
}

TEST(GoldenTable3, AcceleratorEntryCounts) {
  // The 33K-rule DPI graph occupies 97.28 MB.
  EXPECT_EQ(EntriesForProfile(
                accel::AcceleratorMemoryProfile::Dpi(MiBToBytes(97.28))),
            54u);
  EXPECT_EQ(EntriesForProfile(accel::AcceleratorMemoryProfile::Zip()), 70u);
  EXPECT_EQ(EntriesForProfile(accel::AcceleratorMemoryProfile::Raid()), 5u);
}

TEST(GoldenTable4, VppAndDmaEntriesAndCost) {
  const auto menu = PageSizeMenu::Equal();
  const core::VppConfig vpp_config;
  const size_t vpp_entries =
      PlanRegion(vpp_config.rx_buffer_bytes, menu).entries +
      PlanRegion(vpp_config.descriptor_buffer_bytes, menu).entries +
      PlanRegion(vpp_config.output_descriptor_bytes, menu).entries;
  const size_t dma_entries = PlanRegion(MiB(2), menu).entries +
                             PlanRegion(KiB(256), menu).entries;
  EXPECT_EQ(vpp_entries, 3u);
  EXPECT_EQ(dma_entries, 2u);

  // 12 units (48 cores, 4 cores/NF): both columns price at 0.037 / 0.017
  // (McPAT's floor makes 2 and 3 entries identical).
  for (const size_t entries : {vpp_entries, dma_entries}) {
    const TlbCost cost = TlbBanksCost(entries, 12);
    EXPECT_NEAR(cost.area_mm2, 0.037, kCellTol);
    EXPECT_NEAR(cost.power_w, 0.017, kCellTol);
  }
}

TEST(GoldenTable5, WorstCaseEntriesAndCostPerMenu) {
  // Table 6 memory profiles (text, data, code, heap&stack in MB).
  const std::vector<std::vector<double>> nf_regions = {
      {0.87, 0.08, 2.50, 13.75},  // FW
      {1.34, 0.56, 2.59, 46.65},  // DPI
      {0.86, 0.05, 2.49, 40.48},  // NAT
      {0.86, 0.05, 2.49, 10.40},  // LB
      {0.86, 0.06, 2.51, 64.90},  // LPM
      {0.85, 0.05, 2.48, 357.15}, // Mon
  };
  const struct {
    PageSizeMenu menu;
    uint64_t entries;
    double area_mm2;
    double power_w;
  } rows[] = {
      {PageSizeMenu::Equal(), 183, 0.525, 0.311},
      {PageSizeMenu::FlexLow(), 51, 0.218, 0.108},
      {PageSizeMenu::FlexHigh(), 13, 0.150, 0.069},
  };
  for (const auto& row : rows) {
    uint64_t max_entries = 0;
    for (const auto& regions : nf_regions) {
      max_entries = std::max(max_entries,
                             core::EntriesForRegionsMib(regions, row.menu));
    }
    EXPECT_EQ(max_entries, row.entries) << row.menu.name;
    const TlbCost cost = TlbBanksCost(max_entries, 48);
    EXPECT_NEAR(cost.area_mm2, row.area_mm2, kCellTol) << row.menu.name;
    EXPECT_NEAR(cost.power_w, row.power_w, kCellTol) << row.menu.name;
  }
}

TEST(GoldenTco, HeadlineFigures) {
  const hwmodel::TcoReport report = ComputeTco();
  EXPECT_NEAR(report.nic_tco_per_core, 38.97, 0.005);
  EXPECT_NEAR(report.host_tco_per_core, 163.56, 0.005);
  EXPECT_NEAR(report.snic_tco_per_core, 42.53, 0.005);
  EXPECT_NEAR(report.advantage_reduction, 0.0838, 0.0005);
  EXPECT_NEAR(report.advantage_preserved, 0.916, 0.001);
}

// bench/ablation_underutilization: the diurnal load curve over one policy,
// rendered as the bench's table cells.
struct UnderutilizationRow {
  std::string mean_utilization;
  uint64_t overloaded_steps;
  uint64_t launches;
  std::string scaling_latency;
};

UnderutilizationRow RunUnderutilization(int steps, uint32_t min_instances,
                                        uint32_t max_instances) {
  Rng rng(31);
  crypto::VendorAuthority vendor(512, rng);
  core::SnicConfig config;
  config.num_cores = 16;
  config.dram_bytes = 256ull << 20;
  config.rsa_modulus_bits = 512;
  core::SnicDevice device(config, vendor);
  mgmt::NicOs nic_os(&device);

  mgmt::AutoscalerConfig scaler_config;
  scaler_config.image.name = "unit";
  scaler_config.image.code_and_data.assign(4096, 0x44);
  scaler_config.image.memory_bytes = 8ull << 20;
  scaler_config.image.switch_rules.push_back(net::SwitchRule{});
  scaler_config.capacity_per_instance = 100.0;
  scaler_config.min_instances = min_instances;
  scaler_config.max_instances = max_instances;
  mgmt::Autoscaler scaler(&nic_os, scaler_config);
  for (int step = 0; step < steps; ++step) {
    const double phase = 2.0 * 3.14159265 * step / steps;
    EXPECT_TRUE(scaler.Step(300.0 + 220.0 * std::sin(phase - 1.2)).ok());
  }
  const mgmt::AutoscalerStats& stats = scaler.stats();
  return {TablePrinter::Pct(stats.MeanUtilization(), 1), stats.overload_steps,
          stats.launches,
          TablePrinter::Fmt(stats.launch_ms_paid + stats.teardown_ms_paid, 1)};
}

TEST(GoldenUnderutilization, FullDayRows) {
  struct Expected {
    uint32_t min_instances;
    uint32_t max_instances;
    UnderutilizationRow row;
  };
  const Expected rows[] = {
      {6, 6, {"50.0%", 0, 6, "26.9"}},
      {2, 2, {"86.3%", 937, 2, "9.0"}},
      {1, 6, {"68.9%", 0, 7, "37.8"}},
  };
  for (const Expected& e : rows) {
    const UnderutilizationRow got =
        RunUnderutilization(1440, e.min_instances, e.max_instances);
    EXPECT_EQ(got.mean_utilization, e.row.mean_utilization) << e.max_instances;
    EXPECT_EQ(got.overloaded_steps, e.row.overloaded_steps) << e.max_instances;
    EXPECT_EQ(got.launches, e.row.launches) << e.max_instances;
    EXPECT_EQ(got.scaling_latency, e.row.scaling_latency) << e.max_instances;
  }
}

TEST(GoldenUnderutilization, QuickAutoscalerRow) {
  const UnderutilizationRow got = RunUnderutilization(200, 1, 6);
  EXPECT_EQ(got.mean_utilization, "69.2%");
  EXPECT_EQ(got.overloaded_steps, 0u);
  EXPECT_EQ(got.launches, 7u);
  EXPECT_EQ(got.scaling_latency, "37.8");
}

// bench/attacks_bench's flow-watermarking table.
TEST(GoldenWatermark, BitsRecoveredPerBusPolicy) {
  struct Expected {
    sim::BusPolicy policy;
    const char* accuracy;
    const char* bit1;
    const char* bit0;
  };
  for (const Expected& e :
       {Expected{sim::BusPolicy::kFcfs, "100.0%", "4.0", "0.0"},
        Expected{sim::BusPolicy::kRoundRobin, "100.0%", "4.0", "0.0"},
        Expected{sim::BusPolicy::kTemporalPartition, "43.8%", "0.0",
                 "0.0"}}) {
    const core::WatermarkResult result = core::RunWatermarkAttack(e.policy);
    EXPECT_EQ(TablePrinter::Pct(result.bit_accuracy, 1), e.accuracy);
    EXPECT_EQ(TablePrinter::Fmt(result.mean_latency_bit1, 1), e.bit1);
    EXPECT_EQ(TablePrinter::Fmt(result.mean_latency_bit0, 1), e.bit0);
  }
}

}  // namespace
}  // namespace snic
