// Oracle implementations. This file is a faithful copy of the scalar
// cache/replay code as it stood before the fast-path rewrite; it must only
// change in lockstep with the semantics of the fast models (see reference.h).

#include "src/sim/reference.h"

#include <algorithm>
#include <memory>

#include "src/common/units.h"
#include "src/sim/bus.h"
#include "src/sim/replay_sinks.h"

namespace snic::sim {
namespace {

bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

ReferenceCache::ReferenceCache(const CacheConfig& config) : config_(config) {
  SNIC_CHECK(config_.line_bytes > 0 && IsPowerOfTwo(config_.line_bytes));
  SNIC_CHECK(config_.associativity > 0);
  SNIC_CHECK(config_.num_domains > 0);
  const uint64_t lines = config_.size_bytes / config_.line_bytes;
  SNIC_CHECK(lines >= config_.associativity);
  num_sets_ = static_cast<uint32_t>(lines / config_.associativity);
  SNIC_CHECK(IsPowerOfTwo(num_sets_));
  lines_.assign(static_cast<size_t>(num_sets_) * config_.associativity,
                Line{});
  if (config_.policy != PartitionPolicy::kShared) {
    SNIC_CHECK(config_.associativity >= config_.num_domains);
  }
  if (config_.policy == PartitionPolicy::kSecDcp) {
    secdcp_ways_.assign(config_.num_domains,
                        config_.associativity / config_.num_domains);
  }
}

void ReferenceCache::DomainWayRange(uint32_t domain, uint32_t* begin,
                                    uint32_t* end) const {
  switch (config_.policy) {
    case PartitionPolicy::kShared:
      *begin = 0;
      *end = config_.associativity;
      return;
    case PartitionPolicy::kStaticEqual: {
      const uint32_t base = config_.associativity / config_.num_domains;
      const uint32_t extra = config_.associativity % config_.num_domains;
      // The first `extra` domains get one additional way.
      const uint32_t start = domain * base + std::min(domain, extra);
      const uint32_t ways = base + (domain < extra ? 1 : 0);
      *begin = start;
      *end = start + ways;
      return;
    }
    case PartitionPolicy::kSecDcp: {
      uint32_t start = 0;
      for (uint32_t d = 0; d < domain; ++d) {
        start += secdcp_ways_[d];
      }
      *begin = start;
      *end = start + secdcp_ways_[domain];
      return;
    }
  }
  SNIC_CHECK(false);
}

uint32_t ReferenceCache::WaysForDomain(uint32_t domain) const {
  uint32_t begin, end;
  DomainWayRange(domain, &begin, &end);
  return end - begin;
}

bool ReferenceCache::Access(uint64_t addr, uint32_t domain) {
  SNIC_CHECK(domain < config_.num_domains ||
             config_.policy == PartitionPolicy::kShared);
  const uint64_t line_addr = addr / config_.line_bytes;
  const uint32_t set = static_cast<uint32_t>(line_addr) & (num_sets_ - 1);
  const uint64_t tag = line_addr / num_sets_;
  Line* base = &lines_[static_cast<size_t>(set) * config_.associativity];
  ++tick_;

  uint32_t begin, end;
  DomainWayRange(domain, &begin, &end);

  // Hit scan. Under kShared a hit anywhere in the set counts (this is what
  // makes "soft" partitioning like Intel CAT leaky, see §4.2 footnote); under
  // hard partitioning only the domain's own ways are searched.
  for (uint32_t w = begin; w < end; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      // Under kShared, a cross-domain hit transfers LRU ownership; the
      // domain tag is informational there.
      line.lru = tick_;
      line.domain = domain;
      ++stats_.hits;
      return true;
    }
  }

  ++stats_.misses;
  // Victim: invalid way first, else LRU within the allowed range (with
  // occasional random-way eviction under pseudo-LRU).
  Line* victim = nullptr;
  for (uint32_t w = begin; w < end; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (victim == nullptr || line.lru < victim->lru) {
      victim = &line;
    }
  }
  SNIC_CHECK(victim != nullptr);
  if (config_.pseudo_lru && victim->valid) {
    victim_lcg_ = victim_lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    if (((victim_lcg_ >> 33) & 7) == 0) {
      victim = &base[begin + static_cast<uint32_t>((victim_lcg_ >> 36) %
                                                   (end - begin))];
    }
  }
  if (victim->valid) {
    ++stats_.evictions;
  }
  victim->valid = true;
  victim->tag = tag;
  victim->domain = domain;
  victim->lru = tick_;
  return false;
}

void ReferenceCache::FlushDomain(uint32_t domain) {
  for (Line& line : lines_) {
    if (line.valid && line.domain == domain) {
      line.valid = false;
    }
  }
}

void ReferenceCache::ResizeDomain(uint32_t domain, uint32_t ways) {
  SNIC_CHECK(config_.policy == PartitionPolicy::kSecDcp);
  SNIC_CHECK(domain < config_.num_domains);
  const uint32_t floor_ways = 1;
  const uint32_t max_ways =
      config_.associativity - (config_.num_domains - 1) * floor_ways;
  ways = std::clamp(ways, floor_ways, max_ways);
  secdcp_ways_[domain] = ways;
  // Spread the remaining ways over the other domains, each keeping >= 1.
  const uint32_t remaining = config_.associativity - ways;
  const uint32_t others = config_.num_domains - 1;
  if (others > 0) {
    const uint32_t base = remaining / others;
    uint32_t extra = remaining % others;
    for (uint32_t d = 0; d < config_.num_domains; ++d) {
      if (d == domain) {
        continue;
      }
      secdcp_ways_[d] = base + (extra > 0 ? 1 : 0);
      if (extra > 0) {
        --extra;
      }
    }
  }
  // Repartitioning invalidates everything: lines may now sit in ways their
  // owner can no longer reach (hardware would migrate or flush; we flush).
  for (Line& line : lines_) {
    line.valid = false;
  }
}

ReplayResult ReferenceReplay(const MachineConfig& config,
                             const std::vector<const InstructionTrace*>& traces,
                             double warmup_fraction,
                             const ReplayObs* obs_hooks) {
  SNIC_CHECK(!traces.empty());
  SNIC_CHECK(warmup_fraction >= 0.0 && warmup_fraction < 1.0);
  const auto num_cores = static_cast<uint32_t>(traces.size());

  // Per-core private L1s; one shared (or partitioned) L2; one bus arbiter.
  std::vector<ReferenceCache> l1s;
  l1s.reserve(num_cores);
  for (uint32_t c = 0; c < num_cores; ++c) {
    l1s.emplace_back(config.l1);
  }
  CacheConfig l2_config = config.l2;
  l2_config.num_domains = num_cores;
  ReferenceCache l2(l2_config);
  std::unique_ptr<BusArbiter> bus =
      MakeArbiter(config.bus_policy, config.bus_transfer_cycles, num_cores,
                  config.bus_epoch_cycles, config.bus_dead_time_cycles);

  replay_detail::ReplaySinks sinks(obs_hooks, num_cores,
                                   config.bus_transfer_cycles);
  CacheStats l2_at_reset;

  struct CoreState {
    size_t next_event = 0;
    uint64_t cycle = 0;
    uint64_t instructions = 0;
    uint64_t mem_accesses = 0;
    uint64_t l1_misses = 0;
    uint64_t l2_misses = 0;
    size_t warmup_events = 0;
    // Snapshot taken when the core crosses its warmup boundary.
    uint64_t cycle_at_reset = 0;
    uint64_t instr_at_reset = 0;
    uint64_t mem_at_reset = 0;
    uint64_t l1_miss_at_reset = 0;
    uint64_t l2_miss_at_reset = 0;
    bool reset_done = false;
  };
  std::vector<CoreState> cores(num_cores);
  for (uint32_t c = 0; c < num_cores; ++c) {
    cores[c].warmup_events = static_cast<size_t>(
        warmup_fraction * static_cast<double>(traces[c]->events().size()));
  }

  // Interleave cores by advancing whichever core is earliest in simulated
  // time; this keeps bus arrivals near-globally-ordered, which the arbiters
  // assume.
  auto all_done = [&] {
    for (uint32_t c = 0; c < num_cores; ++c) {
      if (cores[c].next_event < traces[c]->events().size()) {
        return false;
      }
    }
    return true;
  };

  bool stats_reset_issued = false;
  while (!all_done()) {
    // Pick the live core with the smallest current cycle.
    uint32_t best = num_cores;
    for (uint32_t c = 0; c < num_cores; ++c) {
      if (cores[c].next_event >= traces[c]->events().size()) {
        continue;
      }
      if (best == num_cores || cores[c].cycle < cores[best].cycle) {
        best = c;
      }
    }
    CoreState& core = cores[best];
    const TraceEvent& ev = traces[best]->events()[core.next_event];
    ++core.next_event;

    // Compute portion: one instruction per cycle.
    core.cycle += ev.compute_instructions;
    core.instructions += ev.compute_instructions;

    // Memory portion. Addresses are tagged per core so distinct NF arenas
    // never alias in the shared L2.
    const uint64_t addr = ev.addr | (static_cast<uint64_t>(best) << 44);
    uint64_t latency;
    if (ev.type == AccessType::kUncachedRead) {
      // Streaming packet-buffer reads ride the VPP/DMA path, which holds a
      // hardware bandwidth reservation in both configurations (§4.4): fixed
      // transfer + DRAM cost, no arbitration wait, no cache pollution.
      latency = config.bus_transfer_cycles + config.dram_latency_cycles;
    } else if (ev.type == AccessType::kUncachedWrite) {
      // Core-issued uncached ops (semaphores, device registers) do cross
      // the arbitrated bus.
      const uint64_t grant = bus->Grant(core.cycle + 1, best);
      sinks.RecordBusWait(best, core.cycle + 1, grant);
      sinks.EmitXfer(best, grant);
      {
        // Store-queue model: the core retires the store immediately unless
        // more than kStoreQueueDepth transfers are queued ahead of it.
        constexpr uint64_t kStoreQueueDepth = 8;
        const uint64_t backlog = grant - (core.cycle + 1);
        const uint64_t queue_cap =
            kStoreQueueDepth * config.bus_transfer_cycles;
        latency = backlog > queue_cap ? 1 + (backlog - queue_cap) : 1;
      }
    } else {
      ++core.mem_accesses;
      latency = config.l1.hit_latency_cycles;
      if (!l1s[best].Access(addr, 0)) {
        ++core.l1_misses;
        latency += config.l2.hit_latency_cycles;
        if (!l2.Access(addr, best)) {
          ++core.l2_misses;
          const uint64_t request_time = core.cycle + latency;
          const uint64_t grant = bus->Grant(request_time, best);
          sinks.RecordBusWait(best, request_time, grant);
          latency = (grant - core.cycle) + config.bus_transfer_cycles +
                    config.dram_latency_cycles;
          // One span on the core's lane for the whole DRAM round trip
          // (arbitration wait + transfer + DRAM), one on the bus lane for
          // the transfer itself.
          sinks.EmitDram(best, request_time,
                         (core.cycle + latency) - request_time);
          sinks.EmitXfer(best, grant);
        }
      }
    }
    core.cycle += latency;
    core.instructions += 1;

    // Warmup boundary: snapshot per-core counters; reset shared stats once
    // every core has crossed (approximates the paper's warm/measure split).
    if (!core.reset_done && core.next_event >= core.warmup_events) {
      core.reset_done = true;
      core.cycle_at_reset = core.cycle;
      core.instr_at_reset = core.instructions;
      core.mem_at_reset = core.mem_accesses;
      core.l1_miss_at_reset = core.l1_misses;
      core.l2_miss_at_reset = core.l2_misses;
      sinks.EmitWarmupDone(best, core.cycle);
      if (!stats_reset_issued) {
        bool all_reset = true;
        for (const CoreState& s : cores) {
          all_reset &= s.reset_done;
        }
        if (all_reset) {
          l2_at_reset = l2.stats();
          l2.ResetStats();
          bus->ResetStats();
          stats_reset_issued = true;
        }
      }
    }
  }

  ReplayResult result;
  result.cores.resize(num_cores);
  for (uint32_t c = 0; c < num_cores; ++c) {
    const CoreState& s = cores[c];
    CoreResult& r = result.cores[c];
    r.instructions = s.instructions - s.instr_at_reset;
    r.cycles = s.cycle - s.cycle_at_reset;
    r.mem_accesses = s.mem_accesses - s.mem_at_reset;
    r.l1_misses = s.l1_misses - s.l1_miss_at_reset;
    r.l2_misses = s.l2_misses - s.l2_miss_at_reset;
  }
  result.l2_stats = l2.stats();
  result.bus_stats = bus->stats();

  std::vector<CacheStats> l1(num_cores);
  for (uint32_t c = 0; c < num_cores; ++c) {
    l1[c] = l1s[c].stats();
  }
  sinks.Publish(l2_at_reset, l1, result);
  return result;
}

}  // namespace snic::sim
