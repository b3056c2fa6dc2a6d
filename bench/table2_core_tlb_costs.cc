// Regenerates Table 2: estimated hardware costs for TLBs on programmable
// cores, for three per-core memory budgets (2 MB pages) and four NIC core
// counts, relative to a 4-core Cortex-A9 baseline.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/hwmodel/tlb_cost.h"

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {});
  using snic::TablePrinter;
  using namespace snic::hwmodel;

  snic::bench::PrintHeader(
      "Table 2: TLB hardware costs on programmable cores",
      "S-NIC (EuroSys'24) Table 2 — McPAT-lite at 28 nm / 2.0 GHz");

  const A9Baseline baseline;
  const std::vector<double> memories_mib = {366.0, 512.0, 1024.0};
  const std::vector<unsigned> core_counts = {4, 8, 16, 48};

  TablePrinter table({"Config", "Metric", "4-core A9 Total", "4-core NIC",
                      "8-core NIC", "16-core NIC", "48-core NIC"});
  for (double mem : memories_mib) {
    const size_t entries = EntriesFor2MbPages(mem);
    std::vector<TlbCost> costs;
    for (unsigned cores : core_counts) {
      costs.push_back(TlbBanksCost(entries, cores));
    }
    const TlbCost total = A9TotalWith(baseline, costs[0]);
    char label[64];
    std::snprintf(label, sizeof(label), "%.0fMB/core (%zu TLB entries)", mem,
                  entries);
    table.AddRow({label, "Area (mm^2)", TablePrinter::Fmt(total.area_mm2, 3),
                  TablePrinter::Fmt(costs[0].area_mm2, 3) + " (" +
                      TablePrinter::Pct(costs[0].area_mm2 / total.area_mm2, 2) +
                      ")",
                  TablePrinter::Fmt(costs[1].area_mm2, 3),
                  TablePrinter::Fmt(costs[2].area_mm2, 3),
                  TablePrinter::Fmt(costs[3].area_mm2, 3)});
    table.AddRow({"", "Power (W)", TablePrinter::Fmt(total.power_w, 3),
                  TablePrinter::Fmt(costs[0].power_w, 3) + " (" +
                      TablePrinter::Pct(costs[0].power_w / total.power_w, 2) +
                      ")",
                  TablePrinter::Fmt(costs[1].power_w, 3),
                  TablePrinter::Fmt(costs[2].power_w, 3),
                  TablePrinter::Fmt(costs[3].power_w, 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper reference (4-core column): 183 -> 0.045 mm^2 / 0.026 W;\n"
      "256 -> 0.060 / 0.035; 512 -> 0.163 / 0.088. Totals: 4.984/1.909,\n"
      "4.999/1.913, 5.102/1.971.\n");
  return 0;
}
