// Regenerates Table 3: TLB-bank costs for virtualized accelerators (DPI,
// ZIP, RAID) across cluster granularities, with per-cluster TLB sizes
// derived from the Table 7 memory profiles via the 2 MB-page sizing rule.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/accel/accelerator.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/core/tlb_sizing.h"
#include "src/hwmodel/tlb_cost.h"

namespace {

// Per-cluster TLB entries: one entry per profiled region under 2 MB pages.
size_t EntriesForProfile(const snic::accel::AcceleratorMemoryProfile& profile) {
  size_t entries = 0;
  const auto menu = snic::core::PageSizeMenu::Equal();
  for (const auto& region : profile.regions) {
    entries += snic::core::PlanRegion(region.bytes, menu).entries;
  }
  return entries;
}

}  // namespace

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {});
  using snic::MiB;
  using snic::TablePrinter;
  using namespace snic::accel;
  using namespace snic::hwmodel;

  snic::bench::PrintHeader(
      "Table 3: TLB banks on virtualized accelerators",
      "S-NIC (EuroSys'24) Table 3 — 64 hardware threads per accelerator");

  // The paper's DPI graph (33K rules) occupies 97.28 MB.
  const auto dpi = AcceleratorMemoryProfile::Dpi(snic::MiBToBytes(97.28));
  const auto zip = AcceleratorMemoryProfile::Zip();
  const auto raid = AcceleratorMemoryProfile::Raid();

  const size_t dpi_entries = EntriesForProfile(dpi);
  const size_t zip_entries = EntriesForProfile(zip);
  const size_t raid_entries = EntriesForProfile(raid);
  std::printf("TLB size per cluster: DPI %zu  ZIP %zu  RAID %zu  (paper: 54/70/5)\n\n",
              dpi_entries, zip_entries, raid_entries);

  TablePrinter table({"Clusters", "Metric", "DPI", "ZIP", "RAID"});
  for (unsigned clusters : {16u, 8u, 4u}) {
    const TlbCost d = TlbBanksCost(dpi_entries, clusters);
    const TlbCost z = TlbBanksCost(zip_entries, clusters);
    const TlbCost r = TlbBanksCost(raid_entries, clusters);
    char label[64];
    std::snprintf(label, sizeof(label), "%u clusters (%u thr/cluster)",
                  clusters, 64 / clusters);
    table.AddRow({label, "Area (mm^2)", TablePrinter::Fmt(d.area_mm2, 3),
                  TablePrinter::Fmt(z.area_mm2, 3),
                  TablePrinter::Fmt(r.area_mm2, 3)});
    table.AddRow({"", "Power (W)", TablePrinter::Fmt(d.power_w, 3),
                  TablePrinter::Fmt(z.power_w, 3),
                  TablePrinter::Fmt(r.power_w, 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper reference (16 clusters): DPI 0.074/0.037, ZIP 0.091/0.044,\n"
      "RAID 0.050/0.023; halving cluster count halves cost.\n");
  return 0;
}
