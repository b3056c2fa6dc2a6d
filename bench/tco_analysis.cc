// Regenerates the §5.2 "TCO impact" analysis: 3-year per-core TCO of a
// LiquidIO NIC, a host Xeon, and an S-NIC-extended LiquidIO, plus the
// headline area/power overheads that feed it.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/hwmodel/tco.h"
#include "src/hwmodel/tlb_cost.h"

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {});
  using snic::TablePrinter;
  using namespace snic::hwmodel;

  snic::bench::PrintHeader("TCO analysis",
                           "S-NIC (EuroSys'24) Section 5.2, 'TCO impact'");

  // First derive the silicon overheads from the cost model (headline: up to
  // 8.89% area, 11.45% power vs a 4-core A9 with 512-entry TLBs).
  const TlbCost core_tlbs = TlbBanksCost(512, 4);
  const TlbCost accel =
      TlbBanksCost(54, 16) + TlbBanksCost(70, 16) + TlbBanksCost(5, 16);
  const TlbCost vpp_dma = TlbBanksCost(3, 12) + TlbBanksCost(2, 12);
  const A9Baseline baseline;
  const double ref_area = baseline.area_mm2 + core_tlbs.area_mm2;
  const double ref_power = baseline.power_w + core_tlbs.power_w;
  const double area_overhead =
      (core_tlbs.area_mm2 + accel.area_mm2 + vpp_dma.area_mm2) / ref_area;
  const double power_overhead =
      (core_tlbs.power_w + accel.power_w + vpp_dma.power_w) / ref_power;
  std::printf("Modeled S-NIC silicon overheads: area %s, power %s\n",
              TablePrinter::Pct(area_overhead, 2).c_str(),
              TablePrinter::Pct(power_overhead, 2).c_str());
  std::printf("Paper headline:                 area 8.89%%, power 11.45%%\n\n");

  TcoParams params;  // defaults embed the paper's worst-case overheads
  const TcoReport report = ComputeTco(params);

  TablePrinter table({"Device", "3-year TCO per core", "Paper"});
  table.AddRow({"Marvell LiquidIO (12-core, $420, 24.7W)",
                "$" + TablePrinter::Fmt(report.nic_tco_per_core, 2), "$38.97"});
  table.AddRow({"Host Xeon E5-2680v3 (12-core, $1745, 113W)",
                "$" + TablePrinter::Fmt(report.host_tco_per_core, 2),
                "$163.56"});
  table.AddRow({"S-NIC-extended LiquidIO (worst case)",
                "$" + TablePrinter::Fmt(report.snic_tco_per_core, 2),
                "$42.53"});
  std::printf("%s\n", table.ToString().c_str());

  std::printf("TCO advantage reduction: %s (paper: 8.37%%)\n",
              TablePrinter::Pct(report.advantage_reduction, 2).c_str());
  std::printf("TCO benefit preserved:   %s (paper: 91.6%%)\n",
              TablePrinter::Pct(report.advantage_preserved, 1).c_str());
  std::printf("(Electricity $%.4f/kWh; purchase cost scaled by die area.)\n",
              params.electricity_usd_per_kwh);
  return 0;
}
