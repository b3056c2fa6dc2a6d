// Regenerates Table 4: TLB-bank costs for virtual packet pipelines and the
// multi-bank DMA controller, for 48 programmable cores grouped into NFs of
// 4, 8 or 16 cores.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/core/tlb_sizing.h"
#include "src/core/vpp.h"
#include "src/hwmodel/tlb_cost.h"

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {});
  using snic::KiB;
  using snic::MiB;
  using snic::TablePrinter;
  using namespace snic::hwmodel;
  namespace core = snic::core;

  snic::bench::PrintHeader(
      "Table 4: TLB banks for virtual packet pipelines and DMA",
      "S-NIC (EuroSys'24) Table 4 — 48 programmable cores");

  // VPP buffers (LiquidIO sizes): PB 2 MB, PDB 128 KB, ODB 1 MB -> one 2 MB
  // page entry each = 3 entries. DMA: PB 2 MB + IQ 256 KB = 2 entries.
  const auto menu = core::PageSizeMenu::Equal();
  const core::VppConfig vpp_config;
  const size_t vpp_entries =
      core::PlanRegion(vpp_config.rx_buffer_bytes, menu).entries +
      core::PlanRegion(vpp_config.descriptor_buffer_bytes, menu).entries +
      core::PlanRegion(vpp_config.output_descriptor_bytes, menu).entries;
  const size_t dma_entries = core::PlanRegion(MiB(2), menu).entries +
                             core::PlanRegion(KiB(256), menu).entries;
  std::printf("TLB size per VPP: %zu   per DMA bank: %zu   (paper: 3 / 2;\n"
              "McPAT prices 2 and 3 entries identically)\n\n",
              vpp_entries, dma_entries);

  TablePrinter table({"Units", "Metric", "Virtual packet pipeline", "DMA"});
  for (unsigned cores_per_nf : {4u, 8u, 16u}) {
    const unsigned units = 48 / cores_per_nf;
    const TlbCost vpp = TlbBanksCost(vpp_entries, units);
    const TlbCost dma = TlbBanksCost(dma_entries, units);
    char label[64];
    std::snprintf(label, sizeof(label), "%u VPP/vDMA (%u cores/NF)", units,
                  cores_per_nf);
    table.AddRow({label, "Area (mm^2)", TablePrinter::Fmt(vpp.area_mm2, 3),
                  TablePrinter::Fmt(dma.area_mm2, 3)});
    table.AddRow({"", "Power (W)", TablePrinter::Fmt(vpp.power_w, 3),
                  TablePrinter::Fmt(dma.power_w, 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper reference: 12 units -> 0.037 mm^2 / 0.017 W each column;\n"
      "6 -> 0.019/0.009; 3 -> 0.009/0.004.\n");
  return 0;
}
