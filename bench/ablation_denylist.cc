// Ablation: denylist representation (DESIGN.md item 3; paper footnote 1).
//
// "The bitmap could literally be a bitmap, or its logical functionality
// could be implemented by traversing the page tables of programmable cores.
// The former option is faster but requires more die area." This bench
// quantifies the trade: hardware lookup steps and state bytes for both
// options, across NIC DRAM sizes and occupancy levels.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/core/denylist.h"

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {});
  using namespace snic;
  using namespace snic::core;

  bench::PrintHeader("Ablation: denylist representation",
                     "S-NIC (EuroSys'24) §4.2, footnote 1");

  TablePrinter table({"DRAM", "Denied pages", "Bitmap bytes",
                      "PageTable bytes", "Bitmap steps", "PageTable steps"});
  for (uint64_t dram_gib : {2ull, 8ull, 32ull}) {
    const uint64_t pages = dram_gib * kGiB / MiB(2);
    for (uint64_t functions : {1ull, 8ull, 64ull}) {
      BitmapDenylist bitmap(pages);
      PageTableDenylist pagetable(pages);
      // Each function denylists a 64 MB image (32 pages), clustered.
      const uint64_t denied = functions * 32;
      for (uint64_t f = 0; f < functions; ++f) {
        for (uint64_t p = 0; p < 32; ++p) {
          const uint64_t page = (f * 97) % (pages - 32) + p;
          bitmap.Deny(page);
          pagetable.Deny(page);
        }
      }
      table.AddRow({std::to_string(dram_gib) + " GiB",
                    std::to_string(denied),
                    std::to_string(bitmap.StateBytes()),
                    std::to_string(pagetable.StateBytes()),
                    std::to_string(bitmap.LookupSteps()),
                    std::to_string(pagetable.LookupSteps())});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected: the bitmap costs one hardware step but its state scales\n"
      "with DRAM size; the EPT-style walk costs two steps with state that\n"
      "scales with *occupied* leaves — the paper's area/latency trade.\n");
  return 0;
}
