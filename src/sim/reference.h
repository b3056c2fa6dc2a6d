// Reference (oracle) models for the replay fast path.
//
// The hot-path `sim::Cache` / `sim::Replay` implementations are aggressively
// optimized (structure-of-arrays way metadata, streaming trace decode,
// batched core scheduling, devirtualized bus arbitration — see
// docs/PERFORMANCE.md). This header keeps the original scalar
// implementations alive, bit for bit, as `ReferenceCache` and
// `ReferenceReplay`. They are not dead code: the differential harness
// (tests/sim_differential_test.cc) and bench/replay_throughput drive both
// models from the same traces and assert byte-identical IPC, miss,
// partition, and bus-grant outcomes, which is what makes further fast-path
// rewrites safe.
//
// Oracle contract (docs/PERFORMANCE.md "The reference-model oracle"):
//  - ReferenceCache::Access must return the same hit/miss verdict, mutate
//    the same logical line state, and advance the same PLRU noise stream as
//    Cache::Access for every access sequence.
//  - ReferenceReplay must produce a ReplayResult (per-core counters,
//    l2_stats, bus_stats) byte-identical to Replay for every trace set and
//    MachineConfig, including the observability side effects (the full-run
//    counts both engines hand to replay_detail::ReplaySinks::Publish, and
//    binary trace records in the same order).
//  - Behavioural changes land in BOTH models in the same commit, with the
//    differential test as the witness; a change to only one of them is a
//    bug by definition.

#ifndef SNIC_SIM_REFERENCE_H_
#define SNIC_SIM_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/sim/cache.h"
#include "src/sim/mem_access.h"
#include "src/sim/replay.h"

namespace snic::sim {

// The pre-optimization set-associative cache: one array-of-structs `Line`
// per (set, way), scalar hit scan and LRU victim search. Semantically
// identical to `Cache` (same CacheConfig vocabulary, same deterministic
// pseudo-LRU noise stream); kept as the differential oracle.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config);

  bool Access(uint64_t addr, uint32_t domain);
  void FlushDomain(uint32_t domain);
  void ResizeDomain(uint32_t domain, uint32_t ways);
  uint32_t WaysForDomain(uint32_t domain) const;

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats(); }
  uint32_t num_sets() const { return num_sets_; }

 private:
  struct Line {
    uint64_t tag = 0;
    uint64_t lru = 0;       // smaller = older
    uint32_t domain = 0;
    bool valid = false;
  };

  void DomainWayRange(uint32_t domain, uint32_t* begin, uint32_t* end) const;

  CacheConfig config_;
  uint32_t num_sets_;
  uint64_t tick_ = 0;
  uint64_t victim_lcg_ = 0x243f6a8885a308d3ULL;  // deterministic PLRU noise
  std::vector<Line> lines_;  // num_sets_ * associativity, row-major by set
  std::vector<uint32_t> secdcp_ways_;  // per-domain way counts under kSecDcp
  CacheStats stats_;
};

// The pre-optimization replay engine: materialized traces, per-event argmin
// core selection, out-of-line ReferenceCache accesses and virtual
// BusArbiter::Grant calls. Same inputs, same outputs (including metric and
// trace-ring side effects) as the fast `Replay`.
ReplayResult ReferenceReplay(const MachineConfig& config,
                             const std::vector<const InstructionTrace*>& traces,
                             double warmup_fraction = 0.1,
                             const ReplayObs* obs_hooks = nullptr);

}  // namespace snic::sim

#endif  // SNIC_SIM_REFERENCE_H_
