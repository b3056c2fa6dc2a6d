// Regenerates Table 7: memory-usage profiles for the three hardware
// accelerators and the TLB entry counts they imply. The DPI graph size is
// *measured* by building the hardware automaton from the full 33,471-pattern
// corpus (paper value: 97.28 MB).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/accel/accelerator.h"
#include "src/accel/aho_corasick.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/core/tlb_sizing.h"

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {"--quick"});
  const bool quick = snic::bench::QuickMode(argc, argv);
  using snic::TablePrinter;
  using namespace snic::accel;

  snic::bench::PrintHeader("Table 7: accelerator memory profiles",
                           "S-NIC (EuroSys'24) Appendix B, Table 7");

  const size_t patterns = quick ? 4'000 : 33'471;
  const AhoCorasick automaton(GenerateDpiRuleset(patterns, 11));
  std::printf(
      "DPI hardware graph: %zu patterns -> %zu nodes -> %.2f MB "
      "(paper: 33,471 rules -> 97.28 MB)\n\n",
      patterns, automaton.node_count(),
      snic::BytesToMiB(automaton.HardwareGraphBytes()));

  const AcceleratorMemoryProfile profiles[] = {
      AcceleratorMemoryProfile::Dpi(automaton.HardwareGraphBytes()),
      AcceleratorMemoryProfile::Zip(),
      AcceleratorMemoryProfile::Raid(),
  };

  TablePrinter table({"Accel", "Regions (bytes)", "Total",
                      "TLB entries (2MB pages)", "Paper"});
  const char* paper[] = {"101.90 MB / 54", "132.24 MB / 70", "8.13 MB / 5"};
  const auto menu = snic::core::PageSizeMenu::Equal();
  for (size_t i = 0; i < 3; ++i) {
    const auto& profile = profiles[i];
    std::string regions;
    size_t entries = 0;
    for (const auto& region : profile.regions) {
      if (!regions.empty()) {
        regions += " ";
      }
      regions += region.name + "=";
      if (region.bytes >= snic::MiB(1)) {
        regions += TablePrinter::Fmt(snic::BytesToMiB(region.bytes), 2) + "M";
      } else {
        regions += std::to_string(region.bytes / 1024) + "K";
      }
      entries += snic::core::PlanRegion(region.bytes, menu).entries;
    }
    table.AddRow({std::string(AcceleratorTypeName(profile.type)), regions,
                  TablePrinter::Fmt(snic::BytesToMiB(profile.TotalBytes()), 2) +
                      " MB",
                  std::to_string(entries), paper[i]});
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
