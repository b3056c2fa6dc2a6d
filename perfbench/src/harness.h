// Shared pieces of the repository benchmark: the span tracer the workloads
// place around every call they make into a layer, the workload interface,
// and the metric list a run reports.
//
// Spans are recorded only from the benchmark's own files; the program under
// test carries no benchmark instrumentation. A span holds its name, start,
// end, parent span and op id, and every span stays in memory until the run
// ends, when per-name totals and self times are reduced from them.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint32_t name = 0;
  uint32_t parent = 0;  // index into the span vector, or Tracer::kNone
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Per-name reduction of the recorded spans. Self time is a span's duration
// minus the time its direct child spans cover (children are strictly nested
// and sequential: the benchmark is single-threaded).
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};
using SpanTable = std::map<std::string, SpanTotals>;

class Tracer {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Names are interned once, when a workload is built; spans carry the id.
  uint32_t Intern(const std::string& name);

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_op(uint64_t op) { op_ = op; }
  // True once the preallocated span storage is used up; no span is
  // recorded after that, so the traced run stops tracing new ops.
  bool full() const { return spans_.size() == spans_.capacity(); }
  size_t size() const { return spans_.size(); }

  uint32_t Begin(uint32_t name) {
    if (!on_ || full()) {
      return kNone;
    }
    const auto index = static_cast<uint32_t>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? kNone : stack_.back(), op_,
                          NowNs(), 0});
    stack_.push_back(index);
    return index;
  }
  void End(uint32_t index) {
    if (index == kNone) {
      return;
    }
    spans_[index].end_ns = NowNs();
    stack_.pop_back();
  }

  SpanTable Totals() const;

 private:
  bool on_ = false;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  std::vector<std::string> names_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, uint32_t name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  uint32_t index_;
};

// One reported metric: name, value and unit, in report order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Mean per-call milliseconds and total self nanoseconds of a span name (0
// when the name was never recorded).
double MeanMs(const SpanTable& spans, const std::string& name);
double SelfNs(const SpanTable& spans, const std::string& name);

class Workload {
 public:
  virtual ~Workload() = default;

  // Stages op `op`'s inputs from what set-up generated; untimed.
  virtual void PrepareOp(uint64_t /*op*/) {}

  // One op of the workload. The harness times the call; the op records what
  // CheckOp needs and checks nothing itself.
  virtual void RunOp(uint64_t op) = 0;

  // Checks op `op`'s outputs, outside the timed region. Returns false (and
  // says why) when an output is wrong; the op then counts as failed.
  virtual bool CheckOp(uint64_t op, std::string* why) = 0;

  // Extra calls the traced run makes after an op, outside the op's time,
  // to split the op into layers it cannot be split into from outside.
  virtual void Probe(uint64_t /*op*/) {}

  // Ops come in cycles that each hold the same multiset of inputs; ops/s
  // and the median are taken over whole cycles, and a traced run switches
  // between untraced and traced blocks only at cycle boundaries.
  virtual uint64_t CycleOps() const { return 1; }

  // Deterministic counts (simulated latencies, frame counts) are reported
  // over ops 1..FixedOps(), so they are identical on every run of a seed.
  virtual uint64_t FixedOps() const { return 1; }

  // Per-layer metrics of the traced run. `traced_ops` ops ran with spans on.
  virtual void LayerMetrics(const SpanTable& spans, uint64_t traced_ops,
                            Metrics* out) = 0;
};

// `cycles` seeded permutations of 0..n-1, back to back: the op order of a
// workload whose every cycle runs each of its n inputs once.
inline std::vector<size_t> PermutedCycles(size_t n, int cycles,
                                          snic::Rng& rng) {
  std::vector<size_t> order;
  order.reserve(n * static_cast<size_t>(cycles));
  for (int c = 0; c < cycles; ++c) {
    const size_t start = order.size();
    for (size_t i = 0; i < n; ++i) {
      order.push_back(i);
    }
    for (size_t i = n; i > 1; --i) {
      std::swap(order[start + i - 1], order[start + rng.NextBounded(i)]);
    }
  }
  return order;
}

struct WorkloadArgs {
  uint64_t seed = 0;
  std::string specs_dir;  // curated scenario specs (scenario_sweep)
  Tracer* tracer = nullptr;
};

std::unique_ptr<Workload> MakeScenarioSweep(const WorkloadArgs& args);
std::unique_ptr<Workload> MakeTenantLifecycle(const WorkloadArgs& args);
std::unique_ptr<Workload> MakeDatapathChain(const WorkloadArgs& args);
std::unique_ptr<Workload> MakeFig5Replay(const WorkloadArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
