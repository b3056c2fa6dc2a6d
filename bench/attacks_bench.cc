// Regenerates the §3.3 concrete-attack results: packet corruption, DPI
// ruleset stealing, and the IO-bus denial of service, each on the commodity
// configuration and on S-NIC.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/core/attacks.h"
#include "src/core/watermark.h"

namespace {

snic::core::SnicDevice MakeDevice(snic::core::SecurityMode mode,
                                  const snic::crypto::VendorAuthority& vendor) {
  snic::core::SnicConfig config;
  config.mode = mode;
  config.num_cores = 8;
  config.dram_bytes = 64ull << 20;
  config.rsa_modulus_bits = 512;
  return snic::core::SnicDevice(config, vendor);
}

}  // namespace

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {});
  using namespace snic;
  using namespace snic::core;

  bench::PrintHeader("Concrete attacks: commodity smart NIC vs S-NIC",
                     "S-NIC (EuroSys'24) Section 3.3");

  Rng rng(1);
  crypto::VendorAuthority vendor(512, rng);

  TablePrinter table({"Attack", "Commodity NIC", "S-NIC", "Detail (S-NIC)"});
  {
    SnicDevice commodity = MakeDevice(SecurityMode::kCommodity, vendor);
    SnicDevice snic = MakeDevice(SecurityMode::kSnic, vendor);
    const auto c = RunPacketCorruptionAttack(commodity);
    const auto s = RunPacketCorruptionAttack(snic);
    table.AddRow({"Packet corruption (LiquidIO, MazuNAT victim)",
                  c.succeeded ? "SUCCEEDS" : "fails",
                  s.succeeded ? "SUCCEEDS" : "blocked", s.detail});
  }
  {
    SnicDevice commodity = MakeDevice(SecurityMode::kCommodity, vendor);
    SnicDevice snic = MakeDevice(SecurityMode::kSnic, vendor);
    const auto c = RunDpiRulesetStealingAttack(commodity);
    const auto s = RunDpiRulesetStealingAttack(snic);
    table.AddRow({"DPI ruleset stealing (LiquidIO)",
                  c.succeeded ? "SUCCEEDS" : "fails",
                  s.succeeded ? "SUCCEEDS" : "blocked", s.detail});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("IO-bus denial of service (Agilio test_subsat loop), victim\n"
              "slowdown vs running alone under each arbitration policy:\n\n");
  TablePrinter dos({"Bus policy", "Victim slowdown", "Attacker req/kcycle"});
  struct Policy {
    sim::BusPolicy policy;
    const char* name;
  };
  for (const Policy& p :
       {Policy{sim::BusPolicy::kFcfs, "FCFS (commodity)"},
        Policy{sim::BusPolicy::kRoundRobin, "Round-robin"},
        Policy{sim::BusPolicy::kTemporalPartition, "Temporal partition (S-NIC)"}}) {
    const BusDosResult result = RunBusDosAttack(p.policy, 400'000);
    dos.AddRow({p.name, TablePrinter::Fmt(result.victim_slowdown, 3) + "x",
                TablePrinter::Fmt(result.attacker_requests_per_kilocycle, 1)});
  }
  std::printf("%s\n", dos.ToString().c_str());

  std::printf("Flow-watermarking side channel (§4.5 [11]): the attacker\n"
              "modulates bus load in a 64-bit pattern; a threshold decoder\n"
              "reads it back from the victim's request latencies.\n\n");
  TablePrinter wm({"Bus policy", "Bits recovered", "Latency bit1/bit0"});
  for (const Policy& p :
       {Policy{sim::BusPolicy::kFcfs, "FCFS (commodity)"},
        Policy{sim::BusPolicy::kRoundRobin, "Round-robin"},
        Policy{sim::BusPolicy::kTemporalPartition, "Temporal partition (S-NIC)"}}) {
    const WatermarkResult result = RunWatermarkAttack(p.policy);
    wm.AddRow({p.name, TablePrinter::Pct(result.bit_accuracy, 1),
               TablePrinter::Fmt(result.mean_latency_bit1, 1) + " / " +
                   TablePrinter::Fmt(result.mean_latency_bit0, 1) + " cyc"});
  }
  std::printf("%s\n", wm.ToString().c_str());
  std::printf(
      "Paper: on the Agilio the bus-DoS attack saturated the bus and\n"
      "hard-crashed the NIC; S-NIC's temporal partitioning bounds the\n"
      "victim's slowdown to the epoch tax and — per §4.5 — eliminates\n"
      "watermark attacks (decoding falls to chance).\n");
  return 0;
}
