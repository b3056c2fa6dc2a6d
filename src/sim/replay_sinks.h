// Observability plumbing shared by the two replay engines (sim::Replay in
// replay.cc and sim::ReferenceReplay in reference.cc); not part of the
// sim API. Keeping both engines on one ReplaySinks means they cannot drift
// in the trace records they emit or the metric series they publish.

#ifndef SNIC_SIM_REPLAY_SINKS_H_
#define SNIC_SIM_REPLAY_SINKS_H_

#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/sim/cache.h"
#include "src/sim/replay.h"

namespace snic::sim::replay_detail {

// One replay's view of its ReplayObs. The caches and buses keep only their
// own stats; the engine records the one per-grant metric (the bus wait) here
// and hands its full-run counts to Publish once the run is over.
class ReplaySinks {
 public:
  // With a ring: interns "dram", "xfer", "warmup_done" (in that order) and
  // names the core lanes and the bus lane's per-domain threads.
  ReplaySinks(const ReplayObs* hooks, uint32_t num_cores,
              uint32_t transfer_cycles);

  // Wait of one bus grant: grant minus the un-stalled arrival.
  void RecordBusWait(uint32_t domain, uint64_t arrival, uint64_t grant) {
    if (!bus_waits_.empty()) {
      bus_waits_[domain].Record(static_cast<double>(grant - arrival));
    }
  }
  // DRAM round trip on core `core`'s lane.
  void EmitDram(uint32_t core, uint64_t ts, uint64_t dur) {
    if (trace_ != nullptr) {
      trace_->EmitComplete(dram_, ts, dur, pid_base_ + core, 0);
    }
  }
  // Bus transfer on the bus lane's thread for `domain`.
  void EmitXfer(uint32_t domain, uint64_t grant) {
    if (trace_ != nullptr) {
      trace_->EmitComplete(xfer_, grant, transfer_cycles_, bus_pid_, domain);
    }
  }
  void EmitWarmupDone(uint32_t core, uint64_t cycle) {
    if (trace_ != nullptr) {
      trace_->EmitInstant(warmup_done_, cycle, pid_base_ + core, 0);
    }
  }

  // Publishes the finished replay into the metrics sink, if any. The one
  // place the sim.cache.*, sim.bus.* and sim.core.* series are named.
  // `l2_at_reset` is the L2's stats at the all-cores-warm reset (so with
  // result.l2_stats it covers the whole run); `l1` holds each core's
  // full-run private-L1 stats.
  void Publish(const CacheStats& l2_at_reset,
               const std::vector<CacheStats>& l1,
               const ReplayResult& result) const;

 private:
  const ReplayObs* hooks_;
  obs::TraceRing* trace_ = nullptr;
  uint32_t pid_base_ = 0;
  uint32_t bus_pid_ = 0;
  uint32_t transfer_cycles_ = 0;
  uint16_t dram_ = 0;
  uint16_t xfer_ = 0;
  uint16_t warmup_done_ = 0;
  // Per-domain wait histograms; empty without a metrics sink.
  std::vector<obs::LatencyHistogram> bus_waits_;
};

}  // namespace snic::sim::replay_detail

#endif  // SNIC_SIM_REPLAY_SINKS_H_
