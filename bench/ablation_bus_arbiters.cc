// Ablation: bus arbitration policies (DESIGN.md item 1).
//
// The paper picks temporal partitioning from a menu of leak-free memory
// schedulers [33, 103, 119]. This bench compares FCFS, round-robin, and
// temporal partitioning on two axes: throughput cost (victim IPC at rising
// co-tenancy, no adversary) and *interference leakage* — how much a domain's
// observed request latencies shift when a neighbour is active, which is the
// signal a timing side channel would decode.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig5_common.h"
#include "src/common/table_printer.h"
#include "src/sim/bus.h"
#include "src/sim/replay.h"

namespace {

using namespace snic;

sim::InstructionTrace DramBoundTrace(size_t events, uint64_t seed) {
  sim::InstructionTrace trace;
  uint64_t x = seed;
  for (size_t i = 0; i < events; ++i) {
    x = x * 6364136223846793005ULL + 1;
    trace.RecordCompute(12);
    trace.RecordAccess((x % (1u << 26)) / 64 * 64, sim::AccessType::kRead);
  }
  return trace;
}

// Mean absolute shift in the victim's per-request grant latency when a
// noisy neighbour runs, in cycles (0 = perfectly leak-free).
double LeakageCycles(sim::BusPolicy policy) {
  auto run = [&](bool with_noise) {
    auto bus = sim::MakeArbiter(policy, 8, 2, 96, 12);
    std::vector<uint64_t> waits;
    uint64_t noise_clock = 0;
    for (uint64_t t = 0; t < 60'000; t += 100) {
      if (with_noise) {
        // Noisy neighbour issues a burst just before the victim.
        for (int b = 0; b < 3; ++b) {
          noise_clock = bus->Grant(t > 5 ? t - 5 : 0, 1);
        }
      }
      waits.push_back(bus->Grant(t, 0) - t);
    }
    (void)noise_clock;
    return waits;
  };
  const auto quiet = run(false);
  const auto noisy = run(true);
  double total = 0.0;
  for (size_t i = 0; i < quiet.size(); ++i) {
    total += std::abs(static_cast<double>(noisy[i]) -
                      static_cast<double>(quiet[i]));
  }
  return total / static_cast<double>(quiet.size());
}

}  // namespace

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {"--quick"});
  const bool quick = snic::bench::QuickMode(argc, argv);
  using snic::TablePrinter;

  snic::bench::PrintHeader(
      "Ablation: bus arbitration policy",
      "S-NIC (EuroSys'24) §4.5 design choice (temporal partitioning [119])");

  const size_t events = quick ? 10'000 : 60'000;
  struct Policy {
    sim::BusPolicy policy;
    const char* name;
  };
  const Policy policies[] = {
      {sim::BusPolicy::kFcfs, "FCFS"},
      {sim::BusPolicy::kRoundRobin, "Round-robin"},
      {sim::BusPolicy::kTemporalPartition, "Temporal partition"},
  };

  TablePrinter table({"Policy", "IPC @2 NFs", "IPC @4 NFs", "IPC @8 NFs",
                      "Leakage (cycles)"});
  for (const Policy& p : policies) {
    std::vector<std::string> row = {p.name};
    for (uint32_t cores : {2u, 4u, 8u}) {
      // Encoded and prepared like the Fig. 5 traces so the replay streams
      // through the shared driver (and thus the same codec) as the headline
      // benches.
      sim::MachineConfig config =
          sim::MachineConfig::MarvellLike(cores, 4u << 20, false);
      config.bus_policy = p.policy;
      std::vector<sim::PreparedTrace> traces;
      std::vector<const sim::PreparedTrace*> mix;
      for (uint32_t c = 0; c < cores; ++c) {
        traces.push_back(sim::PreparedTrace::Prepare(
            sim::EncodedTrace::Encode(DramBoundTrace(events, 17 + c)),
            config.l1, 0.1));
      }
      for (const auto& t : traces) {
        mix.push_back(&t);
      }
      const auto result = snic::bench::ReplayPreparedMix(config, mix);
      row.push_back(TablePrinter::Fmt(result.cores[0].Ipc(), 4));
    }
    row.push_back(TablePrinter::Fmt(LeakageCycles(p.policy), 2));
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected: FCFS has the best contended IPC but large leakage;\n"
      "round-robin is fair but still leaky; temporal partitioning has zero\n"
      "leakage at a bounded IPC cost (<5%% for 4 domains per [119] — the\n"
      "trade the paper accepts).\n");
  return 0;
}
