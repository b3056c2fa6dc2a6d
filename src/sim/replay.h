// Multi-core trace replay engine: the "gem5-lite" behind Figure 5.
//
// Each colocated NF contributes an instruction trace (recorded while the NF
// processed packets natively). The engine times every core's stream against
// a private L1, a shared-or-partitioned L2, and DRAM behind an arbitrated
// bus, then reports per-core IPC. Cores are modeled in-order and blocking
// (one outstanding miss), matching the simple ARM cores on the Marvell NIC
// the paper configures gem5 to mimic (1.2 GHz, two-level cache, DDR3).
//
// The paper's experiment compares, at equal co-tenancy:
//   baseline: shared L2 (LRU), FCFS bus           (commodity NIC)
//   S-NIC:    statically partitioned L2, temporal-partitioned bus
// IPC degradation = 1 - IPC_snic / IPC_baseline, per NF, over all possible
// colocation mixes (§5.3).
//
// This is the fast engine. It splits every trace into a *local* part and a
// *global* part. A core's private L1 is untouched by other cores, so its
// hit/miss pattern — and the latency of every hit and uncached read — is a
// pure function of the core's own access sequence, independent of timing.
// PreparedTrace runs that private pass once (through the SoA sim::Cache and
// the streaming RLE/delta TraceDecoder) and boils the trace down to its
// shared-state events only: L1 misses, uncached writes, and the warmup
// boundary. Replaying a mix then merges just those events — ~a third of the
// trace on the Fig. 5 workloads — against the shared L2, the devirtualized
// sim::InlineBus, and the observability sinks. A prepared trace is reusable
// across mixes, core slots, and machine configs that share its L1 shape,
// which is what makes the Fig. 5 sweeps (each NF trace is replayed dozens
// of times) another order cheaper.
//
// The merge order is provably the reference's: ReferenceReplay picks the
// live core with the smallest current cycle (lowest index on ties), which
// processes events in ascending (start-cycle, core-index) order — a key each
// event carries independently of any other core's progress. So replaying
// only the global events, merged by that same key, touches the L2 / bus /
// trace ring in exactly the reference's sequence. Results — every counter,
// every published metric, the order of every trace-ring record — are byte-
// identical to the scalar sim::ReferenceReplay oracle (src/sim/reference.h,
// held by tests/sim_differential_test.cc). See docs/PERFORMANCE.md.
//
// Address contract (both engines): trace addresses must fit in 44 bits —
// the replay tags bit 44+ with the core index so distinct NF arenas never
// alias in the shared L2.

#ifndef SNIC_SIM_REPLAY_H_
#define SNIC_SIM_REPLAY_H_

#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/sim/bus.h"
#include "src/sim/cache.h"
#include "src/sim/mem_access.h"

namespace snic::sim {

struct MachineConfig {
  // Core.
  double core_ghz = 1.2;

  // Private L1 data cache per core (Marvell-like: 32 KB, 4-way).
  CacheConfig l1;
  // Shared L2.
  CacheConfig l2;

  // DRAM access latency after winning the bus (DDR3-1600-ish at 1.2 GHz).
  uint32_t dram_latency_cycles = 120;

  // Bus.
  BusPolicy bus_policy = BusPolicy::kFcfs;
  uint32_t bus_transfer_cycles = 8;  // one 64 B line
  uint32_t bus_epoch_cycles = 16;
  uint32_t bus_dead_time_cycles = 4;

  // Produces the Marvell-like default with `cores` domains and the given L2
  // capacity; `secure` selects the S-NIC configuration (partitioned cache +
  // temporal bus), otherwise the commodity baseline.
  static MachineConfig MarvellLike(uint32_t cores, uint64_t l2_bytes,
                                   bool secure);
};

struct CoreResult {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t mem_accesses = 0;  // cacheable loads/stores (post-warmup)
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;

  uint64_t L1Hits() const { return mem_accesses - l1_misses; }
  uint64_t L2Hits() const { return l1_misses - l2_misses; }

  double Ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(instructions) /
                                   static_cast<double>(cycles);
  }
};

struct ReplayResult {
  std::vector<CoreResult> cores;
  CacheStats l2_stats;
  BusStats bus_stats;
};

// Observability sinks for one replay. All optional; when `metrics` is set the
// engine publishes, once after the run, per-core post-warmup counters
// (`sim.core.l1.hits{core=c}`, ..., `sim.core.l2.misses{core=c}`), full-run
// cache-level counters (`sim.cache.*`), and full-run per-domain bus series
// (`sim.bus.requests` / `sim.bus.wait_cycles`). When `trace` is set, every
// DRAM-bound access becomes a fixed-size binary ring record ("dram" / "xfer"
// spans, "warmup_done" instants): one lane per core (pid = trace_pid_base +
// core) plus a shared bus lane (pid = trace_pid_base + num_cores, tid =
// domain). Convert offline with TraceRing::ToChromeJson() (or
// tools/snic_trace) to see FCFS-vs-temporal bus schedules side by side in
// Perfetto.
struct ReplayObs {
  obs::MetricRegistry* metrics = nullptr;
  obs::TraceRing* trace = nullptr;
  // Extra labels stamped on every series (e.g. {{"config","snic"}}).
  obs::Labels labels;
  // Offset for trace pids so two replays can share one trace file.
  uint32_t trace_pid_base = 0;
};

class PreparedTrace;
class TracePreparer;

// A trace with its private-L1 pass precomputed against one L1 configuration
// and one warmup fraction. Holds only the shared-state ("global") events —
// L1 misses, uncached writes, the warmup-boundary marker — each carrying the
// local cycle/instruction/access deltas accrued since the previous one, plus
// the residue after the last and the full-run L1 totals. Prepare once, then
// replay under any MachineConfig whose `l1` matches (the S-NIC experiments
// vary the L2/bus between configurations, never the private L1).
class PreparedTrace {
 public:
  PreparedTrace() = default;

  // The encoded overload streams through the block decoder without
  // materializing the events; the bytes must be well-formed (malformed input
  // aborts via SNIC_CHECK — untrusted bytes belong in TraceDecoder).
  static PreparedTrace Prepare(const InstructionTrace& trace,
                               const CacheConfig& l1_config,
                               double warmup_fraction);
  static PreparedTrace Prepare(const EncodedTrace& trace,
                               const CacheConfig& l1_config,
                               double warmup_fraction);

  uint64_t event_count() const { return event_count_; }
  // Shared-state events the replay merge actually walks.
  size_t global_event_count() const { return events_.size(); }
  const CacheConfig& l1_config() const { return l1_; }
  double warmup_fraction() const { return warmup_fraction_; }

 private:
  friend class TracePreparer;
  friend ReplayResult Replay(const MachineConfig& config,
                             const std::vector<const PreparedTrace*>& traces,
                             const ReplayObs* obs_hooks);

  enum Kind : uint8_t {
    kL1Miss = 0,         // L2 probe, maybe bus + DRAM
    kUncachedWrite = 1,  // bus grant through the store queue
    kWarmupMark = 2,     // locally-satisfied boundary event (stats snapshot)
  };
  enum Flags : uint8_t {
    kCrossesWarmup = 1,       // snapshot stats after this event completes
    kMarkerUncachedRead = 2,  // marker's own latency is the uncached-read cost
    kMarkerCountsMem = 4,     // marker's own event was a cacheable access
  };

  // One global event. The d_* fields describe the run of local events since
  // the previous global event's completion: their cycle cost is derived at
  // replay time as d_instr + d_mem*(l1_hit-1) + d_uncached*(uncached-1)
  // (each local event costs compute + latency cycles against compute + 1
  // instructions; only hits and uncached reads are local). The arithmetic
  // wraps intermediate terms but the true sum always fits u64.
  struct GlobalEvent {
    uint64_t addr = 0;      // miss address (untagged); unused for others
    uint64_t d_instr = 0;   // instructions retired by the local run
    uint32_t d_mem = 0;     // cacheable accesses (all L1 hits) in the run
    uint32_t d_uncached = 0;  // uncached reads in the run
    uint32_t compute = 0;   // this event's own compute instructions
    uint8_t kind = 0;       // Kind
    uint8_t flags = 0;      // Flags
  };

  std::vector<GlobalEvent> events_;
  CacheConfig l1_;
  double warmup_fraction_ = 0.0;
  uint64_t event_count_ = 0;
  // Local run after the final global event.
  uint64_t tail_instr_ = 0;
  uint64_t tail_mem_ = 0;
  uint64_t tail_uncached_ = 0;
  // Full-run private-L1 stats (published as the level=l1 cache series).
  CacheStats l1_stats_;
};

// Replays one prepared trace per core: the fastest path, and the form every
// other overload funnels into. Each prepared trace's L1 configuration must
// match `config.l1` (checked); the warmup boundary is baked in at prepare
// time. Reusing prepared traces across replays amortizes the private-L1
// pass across a whole sweep.
ReplayResult Replay(const MachineConfig& config,
                    const std::vector<const PreparedTrace*>& traces,
                    const ReplayObs* obs_hooks = nullptr);

// Replays one trace per core. `warmup_fraction` of each trace runs before
// statistics reset (the paper warms 1 B instructions before measuring 100 M).
ReplayResult Replay(const MachineConfig& config,
                    const std::vector<const InstructionTrace*>& traces,
                    double warmup_fraction = 0.1,
                    const ReplayObs* obs_hooks = nullptr);

// Convenience overload owning copies.
ReplayResult Replay(const MachineConfig& config,
                    const std::vector<InstructionTrace>& traces,
                    double warmup_fraction = 0.1,
                    const ReplayObs* obs_hooks = nullptr);

// Streaming overloads: replay directly from encoded traces through the
// block decoder, never materializing the event vectors. Results are
// identical to decoding first and replaying the materialized form. The
// encoded bytes must be well-formed (i.e. produced by EncodedTrace::Encode
// or validated beforehand); malformed input aborts via SNIC_CHECK —
// untrusted bytes belong in TraceDecoder, which reports errors as values.
ReplayResult Replay(const MachineConfig& config,
                    const std::vector<const EncodedTrace*>& traces,
                    double warmup_fraction = 0.1,
                    const ReplayObs* obs_hooks = nullptr);

ReplayResult Replay(const MachineConfig& config,
                    const std::vector<EncodedTrace>& traces,
                    double warmup_fraction = 0.1,
                    const ReplayObs* obs_hooks = nullptr);

}  // namespace snic::sim

#endif  // SNIC_SIM_REPLAY_H_
