// Regenerates Table 6 (and Appendix B): memory-usage profiles for the six
// NFs, the TLB entry counts they imply under the three page-size menus, and
// the memory-utilization ratios of Table 8.
//
// Methodology mirrors §5.1/Appendix B: each NF processes a synthetic
// iCTF-like stream; the Monitor instead ingests a five-minute CAIDA-like
// flow population (flow count scaled per the trace's 26.7M-flows/hour rate).
// Heap & stack come from the instrumented arena; Text/Data/Code are the
// image-section constants of the paper's Rust binaries (we ship one C++
// library, so section sizes are modeled, not measured).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/core/tlb_sizing.h"
#include "src/net/parser.h"
#include "src/nf/monitor.h"
#include "src/nf/nf_factory.h"
#include "src/trace/trace_gen.h"

namespace {

using namespace snic;

// Paper reference rows for side-by-side comparison.
struct PaperRow {
  double heap;
  uint64_t equal, flex_low, flex_high;
  double mur;  // Table 8
};
const PaperRow kPaper[] = {
    {13.75, 11, 34, 11, 1.000}, {46.65, 28, 51, 13, 1.000},
    {40.48, 25, 37, 10, 0.723}, {10.40, 10, 22, 10, 0.302},
    {64.90, 37, 23, 7, 1.000},  {357.15, 183, 46, 12, 0.683},
};

void DriveWithStream(nf::NetworkFunction& nf, size_t distinct_flows,
                     size_t zipf_packets, uint64_t seed) {
  // One packet per flow rank first (fills flow-keyed state), then a Zipf
  // tail (exercises caches).
  trace::FlowTable flows(distinct_flows, seed);
  for (uint64_t r = 0; r < flows.size(); ++r) {
    net::Packet p = net::PacketBuilder().SetTuple(flows.TupleForRank(r)).Build();
    nf.Process(p);
  }
  trace::TraceConfig config = trace::TraceConfig::IctfLike(seed);
  config.num_flows = distinct_flows;
  trace::PacketStream stream(config);
  for (size_t i = 0; i < zipf_packets; ++i) {
    net::Packet p = stream.Next();
    nf.Process(p);
  }
}

}  // namespace

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {"--quick"});
  const bool quick = snic::bench::QuickMode(argc, argv);
  bench::PrintHeader(
      "Table 6 / Table 8: NF memory profiles, TLB entries, and MURs",
      "S-NIC (EuroSys'24) Appendix B");

  const size_t flow_count = quick ? 8'000 : 80'000;
  const size_t zipf_packets = quick ? 20'000 : 100'000;
  const size_t monitor_flows = quick ? 200'000 : 3'400'000;

  TablePrinter table({"NF", "Text", "Data", "Code", "Heap&stack", "Total",
                      "Equal", "Flex-low", "Flex-high", "MUR",
                      "Paper heap/Equal/MUR"});

  const auto kinds = nf::AllNfKinds();
  for (size_t k = 0; k < kinds.size(); ++k) {
    std::unique_ptr<nf::NetworkFunction> fn;
    if (kinds[k] == nf::NfKind::kMonitor) {
      nf::MonitorConfig config;
      config.model_hugepage_init = true;
      config.hugepage_pool_mib = 64.0;
      fn = std::make_unique<nf::Monitor>(config);
      DriveWithStream(*fn, monitor_flows, zipf_packets, 16 + k);
    } else {
      fn = nf::MakeNf(kinds[k]);
      DriveWithStream(*fn, flow_count, zipf_packets, 16 + k);
    }

    const nf::NfMemoryProfile profile = fn->Profile();
    const std::vector<double> regions = profile.RegionsMib();
    const uint64_t equal = core::EntriesForRegionsMib(
        regions, core::PageSizeMenu::Equal());
    const uint64_t flex_low = core::EntriesForRegionsMib(
        regions, core::PageSizeMenu::FlexLow());
    const uint64_t flex_high = core::EntriesForRegionsMib(
        regions, core::PageSizeMenu::FlexHigh());
    const double mur = fn->arena().peak_bytes() == 0
                           ? 1.0
                           : static_cast<double>(fn->arena().live_bytes()) /
                                 static_cast<double>(fn->arena().peak_bytes());
    char paper[64];
    std::snprintf(paper, sizeof(paper), "%.2f / %llu / %.1f%%",
                  kPaper[k].heap,
                  static_cast<unsigned long long>(kPaper[k].equal),
                  kPaper[k].mur * 100.0);
    table.AddRow({std::string(nf::NfKindName(kinds[k])),
                  TablePrinter::Fmt(profile.image.text_mib, 2),
                  TablePrinter::Fmt(profile.image.data_mib, 2),
                  TablePrinter::Fmt(profile.image.code_mib, 2),
                  TablePrinter::Fmt(profile.heap_stack_mib, 2),
                  TablePrinter::Fmt(profile.TotalMib(), 2),
                  std::to_string(equal), std::to_string(flex_low),
                  std::to_string(flex_high), TablePrinter::Pct(mur, 1),
                  paper});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Notes: heap&stack is measured from the instrumented arena over the\n"
      "synthetic workload%s; Text/Data/Code are modeled image sections.\n"
      "MUR = live bytes at end of run / peak bytes (Table 8's used/prealloc).\n",
      quick ? " (QUICK MODE: reduced flow counts)" : "");
  return 0;
}
