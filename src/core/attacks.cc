#include "src/core/attacks.h"

#include <cstring>

#include "src/net/parser.h"
#include "src/sim/replay.h"

namespace snic::core {
namespace {

constexpr uint32_t kVictimCore = 1;
constexpr uint32_t kAttackerCore = 2;
constexpr uint64_t kVictimId = 0x11;
constexpr size_t kAllocatorSlots = 64;
// The victim's translated flow: 10.1.2.3 -> 93.184.216.34.
constexpr uint32_t kVictimFlowSrcIp = 0x0a010203;
constexpr uint32_t kVictimFlowDstIp = 0x5db8d822;

void WriteU64(PhysicalMemory& memory, uint64_t paddr, uint64_t value) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(value >> (56 - 8 * i));
  }
  memory.Write(paddr, std::span<const uint8_t>(bytes, sizeof(bytes)));
}

uint64_t ReadU64ViaCore(const SnicDevice& device, uint32_t core,
                        uint64_t paddr, bool* denied) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    const auto byte = device.CoreReadPhys(core, paddr + static_cast<uint64_t>(i));
    if (!byte.ok()) {
      *denied = true;
      return 0;
    }
    value = (value << 8) | byte.value();
  }
  return value;
}

// Commodity-mode setup: place a victim buffer + allocator metadata directly
// in physical RAM (how SE-S functions share an allocator). Returns the
// buffer's physical address.
uint64_t StageVictimBuffer(SnicDevice& device, std::span<const uint8_t> data) {
  // Victim buffer lives in page 1.
  const uint64_t buffer_paddr = device.memory().page_bytes();
  device.memory().Write(buffer_paddr, data);
  BufferAllocatorEntry entry;
  entry.magic = kAllocatorMagic;
  entry.owner_id = kVictimId;
  entry.paddr = buffer_paddr;
  entry.bytes = data.size();
  WriteAllocatorEntry(device.memory(), 0, entry);
  return buffer_paddr;
}

}  // namespace

void WriteAllocatorEntry(PhysicalMemory& memory, size_t index,
                         const BufferAllocatorEntry& entry) {
  const uint64_t base = kAllocatorMetaBase + index * sizeof(BufferAllocatorEntry);
  WriteU64(memory, base, entry.magic);
  WriteU64(memory, base + 8, entry.owner_id);
  WriteU64(memory, base + 16, entry.paddr);
  WriteU64(memory, base + 24, entry.bytes);
}

AttackOutcome RunPacketCorruptionAttack(SnicDevice& device) {
  AttackOutcome outcome;

  // The victim (MazuNAT) has a translated packet sitting in its buffer.
  net::PacketBuilder builder;
  net::FiveTuple tuple;
  tuple.src_ip = kVictimFlowSrcIp;
  tuple.dst_ip = kVictimFlowDstIp;
  tuple.src_port = 5555;
  tuple.dst_port = 443;
  tuple.protocol = 6;
  builder.SetTuple(tuple);
  const net::Packet packet = builder.Build();

  if (device.config().mode == SecurityMode::kCommodity) {
    const uint64_t buffer_paddr = StageVictimBuffer(device, packet.bytes());

    // Attacker: xkphys scan of allocator metadata for foreign buffers.
    bool denied = false;
    for (size_t slot = 0; slot < kAllocatorSlots && !denied; ++slot) {
      const uint64_t base =
          kAllocatorMetaBase + slot * sizeof(BufferAllocatorEntry);
      if (ReadU64ViaCore(device, kAttackerCore, base, &denied) !=
          kAllocatorMagic) {
        continue;
      }
      const uint64_t owner =
          ReadU64ViaCore(device, kAttackerCore, base + 8, &denied);
      if (owner == kVictimId) {
        const uint64_t paddr =
            ReadU64ViaCore(device, kAttackerCore, base + 16, &denied);
        // Corrupt the destination IP field in the victim's packet header
        // (offset 14 + 16 within the frame), breaking the NAT translation.
        for (uint64_t i = 0; i < 4; ++i) {
          (void)device.CoreWritePhys(kAttackerCore, paddr + 14 + 16 + i, 0xFF);
        }
      }
    }

    // Did the victim's packet change under it?
    std::vector<uint8_t> after(packet.size());
    device.memory().Read(buffer_paddr,
                         std::span<uint8_t>(after.data(), after.size()));
    outcome.succeeded =
        std::memcmp(after.data(), packet.bytes().data(), packet.size()) != 0;
    outcome.detail = outcome.succeeded
                         ? "attacker located victim buffer via shared "
                           "allocator metadata and corrupted the header"
                         : "packet unchanged";
    return outcome;
  }

  // S-NIC mode: the same attacker actions. Programmable cores have no
  // physical addressing at all, so the very first metadata read is denied.
  bool denied = false;
  (void)ReadU64ViaCore(device, kAttackerCore, kAllocatorMetaBase, &denied);
  outcome.succeeded = !denied;
  outcome.detail = denied ? "hardware denied the physical-address scan"
                          : "scan unexpectedly permitted";
  return outcome;
}

AttackOutcome RunDpiRulesetStealingAttack(SnicDevice& device) {
  AttackOutcome outcome;

  // The victim's DPI ruleset blob (threat signatures).
  std::vector<uint8_t> ruleset;
  for (const char* sig : {"cmd.exe", "/etc/passwd", "<script>alert", "\x90\x90\x90"}) {
    ruleset.insert(ruleset.end(), sig, sig + std::strlen(sig));
    ruleset.push_back('\n');
  }

  if (device.config().mode == SecurityMode::kCommodity) {
    StageVictimBuffer(device, std::span<const uint8_t>(ruleset.data(),
                                                       ruleset.size()));
    // Attacker walks metadata and copies the buffer out.
    std::vector<uint8_t> stolen;
    bool denied = false;
    for (size_t slot = 0; slot < kAllocatorSlots && !denied; ++slot) {
      const uint64_t base =
          kAllocatorMetaBase + slot * sizeof(BufferAllocatorEntry);
      if (ReadU64ViaCore(device, kAttackerCore, base, &denied) !=
          kAllocatorMagic) {
        continue;
      }
      if (ReadU64ViaCore(device, kAttackerCore, base + 8, &denied) !=
          kVictimId) {
        continue;
      }
      const uint64_t paddr =
          ReadU64ViaCore(device, kAttackerCore, base + 16, &denied);
      const uint64_t bytes =
          ReadU64ViaCore(device, kAttackerCore, base + 24, &denied);
      for (uint64_t i = 0; i < bytes && !denied; ++i) {
        const auto b = device.CoreReadPhys(kAttackerCore, paddr + i);
        if (!b.ok()) {
          denied = true;
          break;
        }
        stolen.push_back(b.value());
      }
    }
    outcome.succeeded = stolen == ruleset;
    outcome.detail = outcome.succeeded
                         ? "attacker exfiltrated the full DPI ruleset"
                         : "ruleset not recovered";
    return outcome;
  }

  bool denied = false;
  (void)ReadU64ViaCore(device, kAttackerCore, kAllocatorMetaBase, &denied);
  outcome.succeeded = !denied;
  outcome.detail = denied ? "hardware denied the physical-address scan"
                          : "scan unexpectedly permitted";
  return outcome;
}

BusDosResult RunBusDosAttack(sim::BusPolicy policy, uint64_t attacker_ops) {
  // Victim: a moderate stream of DRAM-bound accesses (streaming working set
  // far larger than L2 so every access misses). Attacker: a tight
  // semaphore-decrement loop against one DRAM line (test_subsat analogue —
  // every iteration is an uncached read-modify-write crossing the bus).
  // Size the victim so its whole run fits inside the attack window (the
  // attacker advances ~8 cycles per op at bus saturation; the victim needs
  // ~150+ cycles per DRAM-bound event).
  sim::InstructionTrace victim;
  for (uint64_t i = 0; i < attacker_ops / 40; ++i) {
    victim.RecordCompute(8);
    victim.RecordAccess(i * 4096, sim::AccessType::kRead);
  }
  sim::InstructionTrace attacker;
  for (uint64_t i = 0; i < attacker_ops; ++i) {
    // test_subsat analogue: an uncached semaphore decrement every iteration;
    // each one is a bus transaction no cache can absorb.
    attacker.RecordAccess(1ull << 30, sim::AccessType::kUncachedWrite);
  }

  sim::MachineConfig config =
      sim::MachineConfig::MarvellLike(2, 4ull << 20, false);
  config.bus_policy = policy;

  // Victim alone (attacker trace empty is not supported; use a 1-op trace).
  sim::InstructionTrace idle;
  idle.RecordAccess(0, sim::AccessType::kRead);
  const std::vector<const sim::InstructionTrace*> solo_traces = {&victim,
                                                                 &idle};
  const std::vector<const sim::InstructionTrace*> contended_traces = {
      &victim, &attacker};
  const auto solo = sim::Replay(config, solo_traces, 0.0);
  const auto contended = sim::Replay(config, contended_traces, 0.0);

  BusDosResult result;
  result.victim_slowdown = static_cast<double>(contended.cores[0].cycles) /
                           static_cast<double>(solo.cores[0].cycles);
  result.attacker_requests_per_kilocycle =
      contended.cores[1].cycles == 0
          ? 0.0
          : 1000.0 * static_cast<double>(contended.cores[1].instructions) /
                static_cast<double>(contended.cores[1].cycles);
  return result;
}

}  // namespace snic::core
