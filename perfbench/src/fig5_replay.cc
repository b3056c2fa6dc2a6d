// fig5_replay: one op is one fig5a sweep job — a 2-NF colocation mix at one
// L2 size, replayed through bench::ReplayPreparedMix under the baseline and
// the S-NIC machine configs, with a metric sink attached and labelled
// config=baseline / config=snic (as fig5a runs with --metrics-out). Ops
// cycle over fig5a's full job list (12 L2 sizes x 21 unordered NF pairs),
// each cycle in an order the seed permutes.
//
// sim and obs do nearly all the work here and little anywhere else, so this
// is the workload that measures the replay engine and its instrumentation.
// Traces are recorded, encoded and prepared in set-up.

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "bench/fig5_common.h"
#include "perfbench/src/harness.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/sim/reference.h"
#include "src/sim/replay.h"

namespace perfbench {
namespace {

using namespace snic;

// fig5a's full-size trace length and trace seed. Replay cost depends on the
// recorded traces, so they are fig5a's own rather than the run's seed; the
// seed permutes the job order of every cycle.
constexpr size_t kEventsPerNf = 120'000;
constexpr uint64_t kFig5aSeed = 2024;
constexpr int kCycles = 64;
// Every kCheckStride-th job of fig5a's list is checked against
// sim::ReferenceReplay each time it runs: 23 jobs which, 11 being coprime
// with the 21 NF pairs of an L2 size, cover every pair and every L2 size.
constexpr size_t kCheckStride = 11;

bool SameResult(const sim::ReplayResult& a, const sim::ReplayResult& b) {
  if (a.cores.size() != b.cores.size()) {
    return false;
  }
  for (size_t c = 0; c < a.cores.size(); ++c) {
    const sim::CoreResult& x = a.cores[c];
    const sim::CoreResult& y = b.cores[c];
    if (x.instructions != y.instructions || x.cycles != y.cycles ||
        x.mem_accesses != y.mem_accesses || x.l1_misses != y.l1_misses ||
        x.l2_misses != y.l2_misses) {
      return false;
    }
  }
  return a.l2_stats.hits == b.l2_stats.hits &&
         a.l2_stats.misses == b.l2_stats.misses &&
         a.l2_stats.evictions == b.l2_stats.evictions &&
         a.bus_stats.requests == b.bus_stats.requests &&
         a.bus_stats.total_wait_cycles == b.bus_stats.total_wait_cycles &&
         a.bus_stats.total_busy_cycles == b.bus_stats.total_busy_cycles;
}

class Fig5Replay : public Workload {
 public:
  explicit Fig5Replay(const WorkloadArgs& args)
      : tracer_(*args.tracer),
        span_record_(tracer_.Intern("trace.record")),
        span_encode_(tracer_.Intern("sim.encode")),
        span_prepare_(tracer_.Intern("sim.prepare")),
        span_replay_(tracer_.Intern("sim.replay")),
        span_attached_(tracer_.Intern("obs.replay_attached")),
        span_detached_(tracer_.Intern("obs.replay_detached")) {
    {
      ScopedSpan span(tracer_, span_record_);
      traces_ = bench::RecordNfTraces(kEventsPerNf, kFig5aSeed);
    }
    bench::EncodedNfTraces encoded;
    {
      ScopedSpan span(tracer_, span_encode_);
      encoded = bench::EncodeNfTraces(traces_);
    }
    {
      ScopedSpan span(tracer_, span_prepare_);
      prepared_ = bench::PrepareNfTraces(encoded);
    }
    for (uint64_t l2 : {KiB(8), KiB(16), KiB(32), KiB(64), KiB(128),
                        KiB(256), KiB(512), MiB(1), MiB(2), MiB(4), MiB(8),
                        MiB(16)}) {
      for (size_t i = 0; i < bench::kNumNfs; ++i) {
        for (size_t j = i; j < bench::kNumNfs; ++j) {
          jobs_.push_back(bench::SweepJob{{i, j}, l2});
        }
      }
    }
    Rng order(args.seed);
    order_ = PermutedCycles(jobs_.size(), kCycles, order);
    for (int secure = 0; secure < 2; ++secure) {
      hooks_[secure].metrics = &metrics_;
      hooks_[secure].labels.emplace_back("config",
                                         secure == 1 ? "snic" : "baseline");
    }
  }

  uint64_t CycleOps() const override { return jobs_.size(); }
  uint64_t FixedOps() const override { return jobs_.size(); }

  void RunOp(uint64_t op) override {
    const bench::SweepJob& job = jobs_[JobOf(op)];
    const std::vector<const sim::PreparedTrace*> mix = {
        &prepared_[job.mix_kinds[0]], &prepared_[job.mix_kinds[1]]};
    for (int secure = 0; secure < 2; ++secure) {
      ScopedSpan span(tracer_, span_replay_);
      results_[secure] = bench::ReplayPreparedMix(
          sim::MachineConfig::MarvellLike(2, job.l2_bytes, secure == 1), mix,
          &hooks_[secure]);
    }
    for (size_t c = 0; c < 2; ++c) {
      degradation_[c] =
          1.0 - results_[1].cores[c].Ipc() / results_[0].cores[c].Ipc();
    }
  }

  bool CheckOp(uint64_t op, std::string* why) override {
    const size_t index = JobOf(op);
    const bench::SweepJob& job = jobs_[index];
    const uint64_t events =
        2 * (traces_[job.mix_kinds[0]].size() + traces_[job.mix_kinds[1]].size());
    if (results_[0].cores.size() != 2 || results_[1].cores.size() != 2) {
      *why = "replay returned the wrong core count";
      return false;
    }
    if (traced_op_ == op) {
      traced_events_ += events;
    }
    if (op >= 1 && op <= FixedOps()) {
      for (const sim::ReplayResult& result : results_) {
        for (const sim::CoreResult& core : result.cores) {
          fixed_l2_misses_ += core.l2_misses;
        }
        fixed_bus_wait_ += result.bus_stats.total_wait_cycles;
      }
      fixed_events_ += events;
    }
    if (!(degradation_[0] < 1.0 && degradation_[1] < 1.0)) {
      *why = "IPC degradation out of range";
      return false;
    }
    // Replay is deterministic: every run of a job repeats its first.
    const auto first = first_results_.emplace(index, results_).first;
    for (int secure = 0; secure < 2; ++secure) {
      if (!SameResult(results_[secure], first->second[secure])) {
        *why = "job " + std::to_string(index) + " differs from its first run";
        return false;
      }
    }
    if (index % kCheckStride != 0) {
      return true;
    }
    auto reference = references_.find(index);
    if (reference == references_.end()) {
      const std::vector<const sim::InstructionTrace*> mix = {
          &traces_[job.mix_kinds[0]], &traces_[job.mix_kinds[1]]};
      std::array<sim::ReplayResult, 2> expected;
      for (int secure = 0; secure < 2; ++secure) {
        expected[secure] = sim::ReferenceReplay(
            sim::MachineConfig::MarvellLike(2, job.l2_bytes, secure == 1), mix,
            bench::kFig5WarmupFraction);
      }
      reference = references_.emplace(index, expected).first;
    }
    for (int secure = 0; secure < 2; ++secure) {
      if (!SameResult(results_[secure], reference->second[secure])) {
        *why = "job " + std::to_string(index) +
               " differs from sim::ReferenceReplay";
        return false;
      }
    }
    return true;
  }

  // Replays the op's job again with the op's metric sink attached and with
  // none; the difference is what the replay instrumentation costs.
  void Probe(uint64_t op) override {
    traced_op_ = op;
    const bench::SweepJob& job = jobs_[JobOf(op)];
    const std::vector<const sim::PreparedTrace*> mix = {
        &prepared_[job.mix_kinds[0]], &prepared_[job.mix_kinds[1]]};
    for (int secure = 0; secure < 2; ++secure) {
      const sim::MachineConfig config =
          sim::MachineConfig::MarvellLike(2, job.l2_bytes, secure == 1);
      {
        ScopedSpan span(tracer_, span_attached_);
        (void)bench::ReplayPreparedMix(config, mix, &hooks_[secure]);
      }
      ScopedSpan span(tracer_, span_detached_);
      (void)bench::ReplayPreparedMix(config, mix);
    }
  }

  void LayerMetrics(const SpanTable& spans, uint64_t traced_ops,
                    Metrics* out) override {
    const double ops = static_cast<double>(std::max<uint64_t>(traced_ops, 1));
    out->push_back({"trace.record_ms", MeanMs(spans, "trace.record"), "ms"});
    out->push_back({"sim.encode_ms", MeanMs(spans, "sim.encode"), "ms"});
    out->push_back({"sim.prepare_ms", MeanMs(spans, "sim.prepare"), "ms"});
    const auto total_ns = [&](const std::string& name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.total_ns;
    };
    out->push_back({"sim.replay_ms", total_ns("sim.replay") / ops / 1e6, "ms"});
    out->push_back({"sim.ns_per_event",
                    traced_events_ == 0
                        ? 0.0
                        : total_ns("sim.replay") /
                              static_cast<double>(traced_events_),
                    "ns"});
    out->push_back({"obs.replay_metrics_ms",
                    (total_ns("obs.replay_attached") -
                     total_ns("obs.replay_detached")) /
                        ops / 1e6,
                    "ms"});
    const double fixed = static_cast<double>(FixedOps());
    out->push_back({"sim.events", static_cast<double>(fixed_events_) / fixed,
                    "count/op"});
    out->push_back({"sim.l2_misses",
                    static_cast<double>(fixed_l2_misses_) / fixed, "count/op"});
    out->push_back({"sim.bus_wait_cycles",
                    static_cast<double>(fixed_bus_wait_) / fixed, "cycles/op"});
  }

 private:
  size_t JobOf(uint64_t op) const {
    return op == 0 ? 0 : order_[(op - 1) % order_.size()];
  }

  Tracer& tracer_;
  uint32_t span_record_, span_encode_, span_prepare_, span_replay_,
      span_attached_, span_detached_;
  std::array<sim::InstructionTrace, bench::kNumNfs> traces_;
  bench::PreparedNfTraces prepared_;
  std::vector<bench::SweepJob> jobs_;
  std::vector<size_t> order_;
  std::array<sim::ReplayResult, 2> results_;
  std::array<double, 2> degradation_{};
  obs::MetricRegistry metrics_;
  std::array<sim::ReplayObs, 2> hooks_;  // baseline, snic
  std::map<size_t, std::array<sim::ReplayResult, 2>> first_results_;
  std::map<size_t, std::array<sim::ReplayResult, 2>> references_;

  uint64_t traced_op_ = 0;
  uint64_t traced_events_ = 0;
  uint64_t fixed_events_ = 0, fixed_l2_misses_ = 0, fixed_bus_wait_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFig5Replay(const WorkloadArgs& args) {
  return std::make_unique<Fig5Replay>(args);
}

}  // namespace perfbench
