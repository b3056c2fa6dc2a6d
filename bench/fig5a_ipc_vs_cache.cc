// Regenerates Fig. 5a: median IPC degradation per NF as the shared L2 size
// sweeps from 8 KB to 16 MB, with two colocated NFs. For each NF the median
// (and p1/p99) is taken over every possible partner pairing.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "bench/fig5_common.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"

int main(int argc, char** argv) {
  using namespace snic;
  using namespace snic::bench;
  RequireKnownFlags(argc, argv, {"--quick", "--jobs=", "--metrics-out=",
                                 "--trace-out=", "--trace-bin-out="});

  // --metrics-out=<file>: JSON snapshot of every replay series (per-core
  // L1/L2 hit+miss counters, per-domain bus wait-cycle histograms, ...).
  // --trace-out=<file>: Chrome-trace JSON for the first replayed pair,
  //   converted offline from the binary ring at exit.
  // --trace-bin-out=<file>: the raw binary ring image (tools/snic_trace).
  // --jobs=N: sweep workers; output is byte-identical at every N.
  Fig5Session session(argc, argv);
  PrintHeader("Fig. 5a: IPC degradation vs L2 cache size (2 colocated NFs)",
              "S-NIC (EuroSys'24) Figure 5a");
  session.RecordTraces(2024);

  const std::vector<uint64_t> cache_sizes = session.quick()
      ? std::vector<uint64_t>{KiB(32), KiB(512), MiB(4)}
      : std::vector<uint64_t>{KiB(8),   KiB(16),  KiB(32), KiB(64), KiB(128),
                              KiB(256), KiB(512), MiB(1),  MiB(2),  MiB(4),
                              MiB(8),   MiB(16)};

  // Every (L2 size, unordered NF pair) combination is one replay job; jobs
  // are listed in serial iteration order so the aggregation below walks
  // results exactly as the single-threaded loop did.
  std::vector<SweepJob> sweep;
  sweep.reserve(cache_sizes.size() * kNumNfs * (kNumNfs + 1) / 2);
  for (uint64_t l2 : cache_sizes) {
    for (size_t i = 0; i < kNumNfs; ++i) {
      for (size_t j = i; j < kNumNfs; ++j) {
        sweep.push_back(SweepJob{{i, j}, l2});
      }
    }
  }
  const auto degradations = session.RunSweep(sweep);

  TablePrinter table({"L2 size", "FW", "DPI", "NAT", "LB", "LPM", "Mon"});
  size_t job = 0;
  for (uint64_t l2 : cache_sizes) {
    // Every unordered pair, evaluated once; samples attributed per position.
    std::array<SampleSet, kNumNfs> samples;
    for (size_t i = 0; i < kNumNfs; ++i) {
      for (size_t j = i; j < kNumNfs; ++j) {
        const auto& degradation = degradations[job++];
        samples[i].Add(degradation[0] * 100.0);
        samples[j].Add(degradation[1] * 100.0);
      }
    }
    std::vector<std::string> row;
    row.push_back(l2 >= MiB(1) ? std::to_string(l2 / MiB(1)) + "MB"
                               : std::to_string(l2 / KiB(1)) + "KB");
    for (size_t k = 0; k < kNumNfs; ++k) {
      row.push_back(TablePrinter::Fmt(samples[k].Median(), 2) + "%");
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Values are median IPC-degradation %% across all partner pairings.\n"
      "Paper shape: degradation rises as L2 shrinks; FW/DPI/NAT suffer most\n"
      "(larger working sets); at 4MB with 2 NFs the median is ~0.24%%.\n");
  return session.WriteOutputs();
}
