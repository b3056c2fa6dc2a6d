// Shared machinery for the Fig. 5 experiments (§5.3).
//
// Methodology, mirroring the paper: each NF executes natively over packets
// drawn from a 100,000-flow pool with Zipf(1.1) popularity (the iCTF-derived
// distribution), recording an instruction/memory trace. Colocation mixes are
// then replayed on the timing model twice — commodity baseline (shared LRU
// L2, FCFS bus) and S-NIC (statically partitioned L2, temporally partitioned
// bus) — at equal co-tenancy, and per-NF IPC degradation is
//   1 - IPC_snic / IPC_baseline.
//
// Parallelism: trace recording and mix replays are self-contained per task,
// so both fan out over a runtime::ThreadPool. Determinism is structural
// (docs/RUNTIME.md): seeds derive from the task index, results land in
// index-addressed slots, and per-task metric/trace shards merge in task
// order — so every jobs count, including the serial `--jobs=1` path, emits
// byte-identical tables and snapshots.
//
// Trace form: recorded traces are immediately run-length/delta encoded
// (sim::EncodedTrace), then prepared once — sim::PreparedTrace streams the
// bytes through the codec and precomputes the private-L1 pass, and every
// replay in the sweep reuses the prepared form. PrepareNfTraces() /
// ReplayPreparedMix() are the places where the consumed form is chosen, so
// the whole Fig. 5 family (5a, 5b, obs_overhead, the bus ablation) switches
// codecs together. Preparation is exact, so results are identical to
// replaying the materialized traces (docs/PERFORMANCE.md).

#ifndef SNIC_BENCH_FIG5_COMMON_H_
#define SNIC_BENCH_FIG5_COMMON_H_

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/net/packet.h"
#include "src/nf/nf_factory.h"
#include "src/obs/trace_ring.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"
#include "src/sim/mem_access.h"
#include "src/sim/replay.h"
#include "src/trace/trace_gen.h"

namespace snic::bench {

inline constexpr size_t kNumNfs = nf::kNumNfKinds;

// One encoded instruction stream per NF kind.
using EncodedNfTraces = std::array<sim::EncodedTrace, kNumNfs>;

// One prepared trace per NF kind — the form the sweep drivers replay from.
using PreparedNfTraces = std::array<sim::PreparedTrace, kNumNfs>;

// All Fig. 5 replays warm 30% of each trace before measuring.
inline constexpr double kFig5WarmupFraction = 0.3;

// Records one instruction trace per NF kind (full-size NF configurations),
// fanning the six recordings across `pool` (inline serial when null). Each
// task's NF attaches its nf.* series to a private shard that merges into
// the global registry at join.
inline std::array<sim::InstructionTrace, kNumNfs> RecordNfTraces(
    size_t events_per_nf, uint64_t seed,
    runtime::ThreadPool* pool = nullptr) {
  std::array<sim::InstructionTrace, kNumNfs> traces;
  const auto kinds = nf::AllNfKinds();
  runtime::ShardedParallelFor(
      pool, kinds.size(), &obs::GlobalRegistry(),
      [&](size_t k, obs::MetricRegistry& shard) {
        obs::ScopedDefaultRegistry scoped(&shard);
        const auto fn = nf::MakeNf(kinds[k]);
        fn->recorder().Attach(&traces[k]);
        // Per-task seed: kept as the historical `seed + k` (a pure function
        // of base seed and task index) so recorded traces stay bit-identical
        // to pre-runtime builds at every jobs count.
        trace::TraceConfig config = trace::TraceConfig::IctfLike(seed + k);
        config.num_flows = 100'000;
        config.zipf_skew = 1.1;
        trace::PacketStream stream(config);
        while (traces[k].size() < events_per_nf) {
          net::Packet packet = stream.Next();
          fn->Process(packet);
        }
        fn->recorder().Detach();
      });
  return traces;
}

// Encodes a recorded trace set into the replayable form.
inline EncodedNfTraces EncodeNfTraces(
    const std::array<sim::InstructionTrace, kNumNfs>& traces) {
  EncodedNfTraces encoded;
  for (size_t k = 0; k < kNumNfs; ++k) {
    encoded[k] = sim::EncodedTrace::Encode(traces[k]);
  }
  return encoded;
}

// Record + encode in one step: what the benches call. The materialized
// traces are dropped as soon as encoding finishes.
inline EncodedNfTraces RecordAndEncodeNfTraces(
    size_t events_per_nf, uint64_t seed,
    runtime::ThreadPool* pool = nullptr) {
  return EncodeNfTraces(RecordNfTraces(events_per_nf, seed, pool));
}

// Streams each encoded trace through the codec and precomputes its
// private-L1 pass at the Fig. 5 warmup fraction. The Marvell-like L1 is the
// same for every core count, L2 capacity, and configuration, so one
// prepared set serves the entire sweep.
inline PreparedNfTraces PrepareNfTraces(const EncodedNfTraces& encoded) {
  const sim::CacheConfig l1 =
      sim::MachineConfig::MarvellLike(2, 4u << 20, false).l1;
  PreparedNfTraces prepared;
  for (size_t k = 0; k < kNumNfs; ++k) {
    prepared[k] =
        sim::PreparedTrace::Prepare(encoded[k], l1, kFig5WarmupFraction);
  }
  return prepared;
}

// The single replay driver for the Fig. 5 family. Every bench-side replay —
// both DegradationForMix configurations, and the ablations' custom machine
// configs — funnels through here, so the trace form handed to the engine
// (today: codec-decoded prepared traces) is switched in exactly one place.
inline sim::ReplayResult ReplayPreparedMix(
    const sim::MachineConfig& config,
    const std::vector<const sim::PreparedTrace*>& mix,
    const sim::ReplayObs* obs_hooks = nullptr) {
  return sim::Replay(config, mix, obs_hooks);
}

// Replays one colocation mix under baseline and S-NIC configurations and
// returns the per-core IPC degradation. When `metrics` / `trace` are set the
// two replays publish their series with a `config=baseline` / `config=snic`
// label (trace lanes for the S-NIC run sit above the baseline's).
inline std::vector<double> DegradationForMix(
    const PreparedNfTraces& traces, const std::vector<size_t>& mix_kinds,
    uint64_t l2_bytes, obs::MetricRegistry* metrics = nullptr,
    obs::TraceRing* trace = nullptr) {
  std::vector<const sim::PreparedTrace*> mix;
  mix.reserve(mix_kinds.size());
  for (size_t kind : mix_kinds) {
    mix.push_back(&traces[kind]);
  }
  const auto cores = static_cast<uint32_t>(mix.size());
  sim::ReplayObs baseline_obs;
  sim::ReplayObs secure_obs;
  const sim::ReplayObs* baseline_hooks = nullptr;
  const sim::ReplayObs* secure_hooks = nullptr;
  if (metrics != nullptr || trace != nullptr) {
    baseline_obs.metrics = metrics;
    baseline_obs.trace = trace;
    baseline_obs.labels.emplace_back("config", "baseline");
    baseline_obs.trace_pid_base = 0;
    secure_obs.metrics = metrics;
    secure_obs.trace = trace;
    secure_obs.labels.emplace_back("config", "snic");
    secure_obs.trace_pid_base = cores + 1;  // own lanes above the baseline's
    baseline_hooks = &baseline_obs;
    secure_hooks = &secure_obs;
  }
  const auto baseline = ReplayPreparedMix(
      sim::MachineConfig::MarvellLike(cores, l2_bytes, /*secure=*/false), mix,
      baseline_hooks);
  const auto secure = ReplayPreparedMix(
      sim::MachineConfig::MarvellLike(cores, l2_bytes, /*secure=*/true), mix,
      secure_hooks);
  std::vector<double> degradation(mix.size());
  for (size_t c = 0; c < mix.size(); ++c) {
    degradation[c] = 1.0 - secure.cores[c].Ipc() / baseline.cores[c].Ipc();
  }
  return degradation;
}

// One replay job of a sweep: a colocation mix at one L2 capacity.
struct SweepJob {
  std::vector<size_t> mix_kinds;
  uint64_t l2_bytes = 0;
};

// Which jobs record binary ring records when a TraceRing sink is given.
// Fig. 5a traces only the first replayed pair (lanes restart at cycle 0 per
// replay, so later pairs would overdraw it); obs_overhead costs tracing on
// every pair.
enum class SweepTrace {
  kFirstJob,
  kAllJobs,
};

// Per-task ring capacity when every job records (obs_overhead): bounded so
// the hot path never reallocates past warm-up, and sized so a shard's
// storage (48 B/record, ~200 KiB at 4096) stays cache-resident — wrapped
// emission then rewrites warm lines instead of streaming tens of MB through
// the L2 the replay under measurement is using, which is what keeps
// always-on tracing inside the <=3% obs_overhead budget. Single-traced-job
// sweeps (fig5a) use unbounded shards instead so the one recorded pair is
// complete.
inline constexpr size_t kSweepRingRecordsPerJob = size_t{1} << 12;

// Replays every job across `pool` and returns per-job degradations indexed
// identically to `jobs`. Each task records metrics into a private shard;
// shards merge into `metrics` in job order at join, so the final registry —
// like the returned results — is byte-identical at every jobs count. Trace
// records land in per-job binary rings (runtime::TraceRingShards) stitched
// into `trace` in job order at join, off the hot path.
inline std::vector<std::vector<double>> RunDegradationSweep(
    runtime::ThreadPool* pool, const PreparedNfTraces& traces,
    const std::vector<SweepJob>& jobs, obs::MetricRegistry* metrics,
    obs::TraceRing* trace = nullptr,
    SweepTrace trace_mode = SweepTrace::kFirstJob) {
  std::vector<std::vector<double>> results(jobs.size());
  runtime::TraceRingShards trace_shards(
      trace == nullptr ? 0 : jobs.size(),
      trace_mode == SweepTrace::kAllJobs ? kSweepRingRecordsPerJob : 0);
  runtime::ShardedParallelFor(
      pool, jobs.size(), metrics,
      [&](size_t j, obs::MetricRegistry& shard) {
        obs::MetricRegistry* metric_sink = metrics == nullptr ? nullptr
                                                              : &shard;
        obs::TraceRing* trace_sink = nullptr;
        if (trace != nullptr &&
            (trace_mode == SweepTrace::kAllJobs || j == 0)) {
          trace_sink = &trace_shards.shard(j);
        }
        results[j] = DegradationForMix(traces, jobs[j].mix_kinds,
                                       jobs[j].l2_bytes, metric_sink,
                                       trace_sink);
      });
  trace_shards.MergeInto(trace);
  return results;
}

// Shared main-loop scaffolding for the Fig. 5 benches. fig5a and fig5b had
// drifted into near-copies of the same driver (flag parsing, trace
// recording, sweep dispatch, metrics/trace snapshot writing); both now
// delegate everything but their job list and their table aggregation here.
class Fig5Session {
 public:
  Fig5Session(int argc, char** argv)
      : quick_(QuickMode(argc, argv)),
        metrics_out_(FlagValue(argc, argv, "--metrics-out")),
        trace_out_(FlagValue(argc, argv, "--trace-out")),
        trace_bin_out_(FlagValue(argc, argv, "--trace-bin-out")),
        pool_(MakePool(JobsFlag(argc, argv))),
        events_per_nf_(quick_ ? 20'000 : 120'000) {}

  bool quick() const { return quick_; }
  size_t events_per_nf() const { return events_per_nf_; }
  runtime::ThreadPool* pool() { return pool_.get(); }

  // Records, encodes, and prepares the per-NF traces (announcing the size).
  void RecordTraces(uint64_t seed) {
    std::printf(
        "Recording NF traces (%zu events/NF, Zipf 1.1 over 100k flows)"
        "...\n\n",
        events_per_nf_);
    traces_ =
        PrepareNfTraces(RecordAndEncodeNfTraces(events_per_nf_, seed,
                                                pool_.get()));
  }

  // Runs the bench's job list through the shared sweep driver, with the
  // metric/trace sinks the command-line flags requested.
  std::vector<std::vector<double>> RunSweep(
      const std::vector<SweepJob>& jobs,
      SweepTrace trace_mode = SweepTrace::kFirstJob) {
    return RunDegradationSweep(pool_.get(), traces_, jobs, metrics_sink(),
                               trace_sink(), trace_mode);
  }

  // Writes whatever snapshots the flags requested (--metrics-out,
  // --trace-out, --trace-bin-out). Returns 0, or 1 if any write failed.
  int WriteOutputs() {
    if (!metrics_out_.empty()) {
      obs::MetricRegistry& metrics = obs::GlobalRegistry();
      if (metrics.WriteJsonFile(metrics_out_).ok()) {
        std::printf("Wrote metrics snapshot (%zu series) to %s\n",
                    metrics.NumSeries(), metrics_out_.c_str());
      } else {
        std::fprintf(stderr, "Failed to write %s\n", metrics_out_.c_str());
        return 1;
      }
    }
    if (!trace_out_.empty()) {
      if (trace_.WriteChromeJsonFile(trace_out_).ok()) {
        std::printf("Wrote %zu trace events to %s (load in ui.perfetto.dev)\n",
                    trace_.size(), trace_out_.c_str());
      } else {
        std::fprintf(stderr, "Failed to write %s\n", trace_out_.c_str());
        return 1;
      }
    }
    if (!trace_bin_out_.empty()) {
      if (trace_.WriteBinaryFile(trace_bin_out_).ok()) {
        std::printf("Wrote %zu binary ring records to %s"
                    " (analyze with tools/snic_trace)\n",
                    trace_.size(), trace_bin_out_.c_str());
      } else {
        std::fprintf(stderr, "Failed to write %s\n", trace_bin_out_.c_str());
        return 1;
      }
    }
    return 0;
  }

 private:
  obs::MetricRegistry* metrics_sink() {
    // The global registry already holds the nf.* series the NFs published
    // while their traces were recorded; replay series join them there.
    return metrics_out_.empty() ? nullptr : &obs::GlobalRegistry();
  }
  obs::TraceRing* trace_sink() {
    return trace_out_.empty() && trace_bin_out_.empty() ? nullptr : &trace_;
  }

  bool quick_;
  std::string metrics_out_;
  std::string trace_out_;
  std::string trace_bin_out_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  size_t events_per_nf_;
  PreparedNfTraces traces_;
  obs::TraceRing trace_;  // unbounded merge sink, filled at task join
};

}  // namespace snic::bench

#endif  // SNIC_BENCH_FIG5_COMMON_H_
