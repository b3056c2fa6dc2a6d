// Regenerates Table 5: TLB hardware cost as a function of the supported
// page-size menu, sized by the maximum entry count any of the six NFs needs
// (from the Table 6 memory profiles) across 48 programmable cores.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/core/tlb_sizing.h"
#include "src/hwmodel/tlb_cost.h"

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {});
  using snic::TablePrinter;
  using namespace snic::core;
  using namespace snic::hwmodel;

  snic::bench::PrintHeader(
      "Table 5: TLB cost vs supported page sizes",
      "S-NIC (EuroSys'24) Table 5 — 48 programmable cores, worst-case NF");

  // Table 6 memory profiles (text, data, code, heap&stack in MB).
  const std::vector<std::vector<double>> nf_regions = {
      {0.87, 0.08, 2.50, 13.75},  // FW
      {1.34, 0.56, 2.59, 46.65},  // DPI
      {0.86, 0.05, 2.49, 40.48},  // NAT
      {0.86, 0.05, 2.49, 10.40},  // LB
      {0.86, 0.06, 2.51, 64.90},  // LPM
      {0.85, 0.05, 2.48, 357.15}, // Mon
  };

  TablePrinter table(
      {"Page size setting", "TLB size", "Area (mm^2)", "Power (W)"});
  for (const PageSizeMenu& menu :
       {PageSizeMenu::Equal(), PageSizeMenu::FlexLow(),
        PageSizeMenu::FlexHigh()}) {
    uint64_t max_entries = 0;
    for (const auto& regions : nf_regions) {
      max_entries = std::max(max_entries, EntriesForRegionsMib(regions, menu));
    }
    const TlbCost cost = TlbBanksCost(max_entries, 48);
    std::string pages = "(";
    for (size_t i = 0; i < menu.page_bytes.size(); ++i) {
      const uint64_t kb = menu.page_bytes[i] / 1024;
      pages += kb >= 1024 ? std::to_string(kb / 1024) + "MB"
                          : std::to_string(kb) + "KB";
      if (i + 1 < menu.page_bytes.size()) {
        pages += ",";
      }
    }
    pages += ")";
    table.AddRow({menu.name + " " + pages,
                  std::to_string(max_entries) + " x 48",
                  TablePrinter::Fmt(cost.area_mm2, 3),
                  TablePrinter::Fmt(cost.power_w, 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper reference: Equal(2MB) 183 -> 0.538 / 0.311;\n"
      "(128KB,2MB,64MB) 51 -> 0.214 / 0.106; (2MB,32MB,128MB) 13 -> 0.150 /\n"
      "0.069. (The paper's Table 5 swaps the Flex-low/-high labels relative\n"
      "to its Table 6; we use Table 6's naming.)\n");
  return 0;
}
