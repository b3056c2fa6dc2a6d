// NF gallery: runs all six evaluation network functions (§5.1) over the
// same synthetic iCTF-like stream and reports behaviour and footprint side
// by side — a tour of the workload half of the reproduction.
//
// Build & run:  ./build/examples/nf_gallery [packet_count]

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/flags.h"
#include "src/snic.h"

using namespace snic;

int main(int argc, char** argv) {
  size_t packets = 50'000;
  if (argc > 1) {
    const std::optional<uint64_t> parsed = ParseU64(argv[1]);
    if (argc > 2 || !parsed.has_value()) {
      std::fprintf(stderr, "usage: %s [packet_count]\n", argv[0]);
      return 2;
    }
    packets = *parsed;
  }
  std::printf("== NF gallery: %zu packets, Zipf(1.1) over 100k flows ==\n\n",
              packets);

  TablePrinter table({"NF", "Forwarded", "Dropped", "Heap (MB)",
                      "TLB entries (Flex-high)", "Notes"});
  for (nf::NfKind kind : nf::AllNfKinds()) {
    const auto fn = nf::MakeNf(kind);
    trace::TraceConfig config = trace::TraceConfig::IctfLike(
        42 + static_cast<uint64_t>(kind));
    trace::PacketStream stream(config);
    for (size_t i = 0; i < packets; ++i) {
      net::Packet packet = stream.Next();
      fn->Process(packet);
    }
    const auto profile = fn->Profile();
    const uint64_t entries = core::EntriesForRegionsMib(
        profile.RegionsMib(), core::PageSizeMenu::FlexHigh());

    std::string notes;
    switch (kind) {
      case nf::NfKind::kFirewall: {
        auto* fw = static_cast<nf::Firewall*>(fn.get());
        notes = "cache hits " + std::to_string(fw->cache_hits());
        break;
      }
      case nf::NfKind::kDpi: {
        auto* dpi = static_cast<nf::DpiNf*>(fn.get());
        notes = std::to_string(dpi->automaton().pattern_count()) +
                " patterns, " + std::to_string(dpi->matches()) + " hits";
        break;
      }
      case nf::NfKind::kNat: {
        auto* nat = static_cast<nf::Nat*>(fn.get());
        notes = std::to_string(nat->translations_installed()) +
                " translations";
        break;
      }
      case nf::NfKind::kLoadBalancer:
        notes = "Maglev 65537-slot table";
        break;
      case nf::NfKind::kLpm: {
        auto* lpm = static_cast<nf::Lpm*>(fn.get());
        notes = std::to_string(lpm->tbl8_chunks()) + " TBL8 chunks";
        break;
      }
      case nf::NfKind::kMonitor: {
        auto* mon = static_cast<nf::Monitor*>(fn.get());
        notes = std::to_string(mon->distinct_flows()) + " flows tracked";
        break;
      }
    }
    table.AddRow({std::string(nf::NfKindName(kind)),
                  std::to_string(fn->counters().forwarded),
                  std::to_string(fn->counters().dropped),
                  TablePrinter::Fmt(profile.heap_stack_mib, 2),
                  std::to_string(entries), notes});
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
