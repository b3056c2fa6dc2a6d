// Regenerates Fig. 5b: IPC degradation per NF as co-tenancy grows
// (2/3/4/8/16 colocated NFs) with a 4 MB L2. Mixes are sampled over the NF
// population; medians and p1/p99 error bars are reported per NF plus the
// cross-NF aggregate the paper quotes in prose (0.24% @2, 0.93% @4,
// 3.41% @8, 9.44% @16).

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "bench/fig5_common.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"

int main(int argc, char** argv) {
  using namespace snic;
  using namespace snic::bench;
  RequireKnownFlags(argc, argv, {"--quick", "--jobs=", "--metrics-out=",
                                 "--trace-out=", "--trace-bin-out="});

  // --metrics-out=<file>: JSON replay-series snapshot.
  // --jobs=N: sweep workers; output is byte-identical at every N.
  Fig5Session session(argc, argv);
  PrintHeader("Fig. 5b: IPC degradation vs co-tenancy (4MB L2)",
              "S-NIC (EuroSys'24) Figure 5b");
  session.RecordTraces(2024);

  const std::vector<uint32_t> arities = session.quick()
      ? std::vector<uint32_t>{2, 4, 8}
      : std::vector<uint32_t>{2, 3, 4, 8, 16};

  // Mix sampling stays serial: all draws come from one Rng stream in the
  // historical order (arity-major, then mix, then slot), so the sampled
  // mixes are independent of the jobs count. Only the replays fan out.
  std::vector<SweepJob> sweep;
  Rng rng(99);
  for (uint32_t n : arities) {
    const size_t num_mixes =
        session.quick() ? 4 : (n <= 4 ? 12 : (n == 8 ? 8 : 5));
    for (size_t m = 0; m < num_mixes; ++m) {
      std::vector<size_t> mix(n);
      for (auto& kind : mix) {
        kind = rng.NextBounded(kNumNfs);
      }
      sweep.push_back(SweepJob{std::move(mix), MiB(4)});
    }
  }
  const auto degradations = session.RunSweep(sweep);

  TablePrinter table({"NFs", "FW", "DPI", "NAT", "LB", "LPM", "Mon",
                      "median(all)", "p99(all)"});
  size_t job = 0;
  for (uint32_t n : arities) {
    const size_t num_mixes =
        session.quick() ? 4 : (n <= 4 ? 12 : (n == 8 ? 8 : 5));
    std::array<SampleSet, kNumNfs> per_nf;
    SampleSet all;
    for (size_t m = 0; m < num_mixes; ++m, ++job) {
      const std::vector<size_t>& mix = sweep[job].mix_kinds;
      const std::vector<double>& degradation = degradations[job];
      for (size_t c = 0; c < mix.size(); ++c) {
        per_nf[mix[c]].Add(degradation[c] * 100.0);
        all.Add(degradation[c] * 100.0);
      }
    }
    std::vector<std::string> row = {std::to_string(n)};
    for (size_t k = 0; k < kNumNfs; ++k) {
      row.push_back(per_nf[k].empty()
                        ? "-"
                        : TablePrinter::Fmt(per_nf[k].Median(), 2) + "%");
    }
    row.push_back(TablePrinter::Fmt(all.Median(), 2) + "%");
    row.push_back(TablePrinter::Fmt(all.Percentile(99), 2) + "%");
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper reference (median / p99 across colocations): 2 NFs 0.24%%;\n"
      "4 NFs 0.93%% / 1.66%%; 8 NFs 3.41%% / 5.12%%; 16 NFs 9.44%% / 13.71%%.\n"
      "Shape to verify: monotone growth with co-tenancy; FW/DPI/NAT worst.\n");
  return session.WriteOutputs();
}
