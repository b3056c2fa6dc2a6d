// Lightweight, zero-dependency metrics layer.
//
// The paper's whole evaluation is about *measuring* cross-tenant interference
// (IPC degradation, bus wait cycles, cache miss inflation, §5), so the
// simulator's internals need to be observable at runtime rather than through
// ad-hoc return values. This registry gives every layer named counters,
// gauges and latency histograms with hierarchical labels (`nf_id`, `core`,
// `component`), plus text and JSON snapshot exporters that the benches dump
// as machine-readable sidecars.
//
// Hot-path discipline: an instrumented class looks its metric up once
// (`MetricRegistry::GetCounter` returns a stable reference) and keeps a raw
// pointer; each event is then a plain `uint64_t` add — no locks, no hashing,
// no allocation, no atomics.
//
// Threading / sharding contract (see docs/RUNTIME.md): individual series
// values are single-writer — a registry that is being recorded into belongs
// to exactly one thread. The parallel sweep runtime therefore gives every
// task a private *shard* registry and merges the shards into a target
// registry at join via MergeFrom (counters sum, gauges last-write-win in
// merge order, histograms add bucket-wise). Registry-level operations
// (series creation, Find*, MergeFrom, exports, ResetAll) are guarded by an
// internal mutex, so snapshotting a registry (ExportText / ExportJson /
// WriteJsonFile) is safe while other threads merge shards into it or create
// series — only raw pointer-cached Inc/Set/Record on the *same* registry
// must stay single-threaded.
//
// Cost: control-plane components bind DefaultRegistry() at construction, so
// their sites are unconditional adds; a replay publishes its full-run counts
// once after the run (src/sim/replay.cc), and bench/obs_overhead.cc tracks
// that cost on the Fig. 5 replay path.

#ifndef SNIC_OBS_METRICS_H_
#define SNIC_OBS_METRICS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace snic::obs {

// Label set attached to a metric, e.g. {{"core","3"},{"config","snic"}}.
// Stored sorted by key so {a,b} and {b,a} name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  friend class MetricRegistry;
  uint64_t value_ = 0;
  uint64_t holders_ = 0;  // unreleased Get* calls; under the registry's mu_
};

// Point-in-time level (flow-table occupancy, live heap bytes, ...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  friend class MetricRegistry;
  double value_ = 0.0;
  uint64_t holders_ = 0;  // unreleased Get* calls; under the registry's mu_
};

// Fixed-bucket latency/size distribution with O(1) memory per series:
// a snic::Histogram over [lo, hi) plus running count/sum/min/max. Percentiles
// are estimated by linear interpolation inside the owning bucket (exact
// enough for dashboards; the benches keep exact SampleSets where the paper
// needs precise p1/p99 error bars).
class LatencyHistogram {
 public:
  LatencyHistogram(double lo, double hi, size_t buckets);

  void Record(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double MinValue() const;   // NaN when empty
  double MaxValue() const;   // NaN when empty
  double MeanValue() const;  // NaN when empty
  // Estimated percentile, p in [0, 100]; NaN when empty.
  double PercentileEstimate(double p) const;

  const snic::Histogram& histogram() const { return histogram_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  // Adds another histogram's samples (bucket-wise counts plus running
  // count/sum/min/max). Both histograms must share the same geometry;
  // returns false and leaves *this untouched otherwise.
  bool MergeFrom(const LatencyHistogram& other);

  void Reset();

 private:
  double lo_;
  double hi_;
  snic::Histogram histogram_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Holds every metric series, keyed by (name, labels). References returned by
// the getters stay valid for the registry's lifetime — including across
// ResetAll() — so instrumented hot paths may cache raw pointers.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Get-or-create. Labels are canonicalized (sorted by key). Each counter
  // or gauge Get* takes one hold on the series (see Release).
  Counter& GetCounter(std::string_view name, Labels labels = {});
  Gauge& GetGauge(std::string_view name, Labels labels = {});
  // Bucket geometry applies only on first creation of the series.
  LatencyHistogram& GetHistogram(std::string_view name, Labels labels = {},
                                 double lo = 0.0, double hi = 4096.0,
                                 size_t buckets = 64);

  // Lookup without creating; nullptr when the series does not exist.
  const Counter* FindCounter(std::string_view name,
                             const Labels& labels = {}) const;
  const Gauge* FindGauge(std::string_view name,
                         const Labels& labels = {}) const;
  const LatencyHistogram* FindHistogram(std::string_view name,
                                        const Labels& labels = {}) const;

  size_t NumSeries() const;

  // Gives back one hold on each series (references Get* returned; nullptr
  // entries are ignored). A series leaves the registry when its last hold
  // is given back, so an object that attached series for something gone
  // for good (a torn-down function) releases them and the registry stays
  // bounded, while a series another holder still caches stays put. A
  // holder must not touch a reference after releasing it.
  void Release(std::initializer_list<Counter*> counters,
               std::initializer_list<Gauge*> gauges = {});

  // Zeroes every value but keeps all registrations (cached pointers stay
  // valid). Use between bench repetitions or tests.
  void ResetAll();

  // Folds another registry (typically a per-task shard) into this one:
  // counters add, gauges overwrite (so merging shards in ascending task
  // order makes the highest-indexed writer win, mirroring a serial run),
  // histograms merge bucket-wise. Series missing here are created with the
  // shard's geometry; a histogram series present in both with differing
  // geometry aborts (shards of one sweep must agree on geometry). `other`
  // must be quiescent (no concurrent writers) for the duration of the call.
  void MergeFrom(const MetricRegistry& other);

  // One line per series: name{k=v,...} value. Sorted, stable.
  std::string ExportText() const;
  // {"counters":[...],"gauges":[...],"histograms":[...]} — parseable by
  // obs::json and round-tripped in the tests.
  std::string ExportJson() const;
  Status WriteJsonFile(const std::string& path) const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& other) const {
      if (name != other.name) {
        return name < other.name;
      }
      return labels < other.labels;
    }
  };

  static Key MakeKey(std::string_view name, Labels labels);

  // Guards the series maps (creation, lookup, merge, export, reset) — not
  // the values behind the returned references, which stay single-writer.
  // The guard is machine-checked: clang's -Wthread-safety (CI job) rejects
  // any access to the maps outside a MutexLock on mu_.
  mutable Mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_ SNIC_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ SNIC_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<LatencyHistogram>> histograms_
      SNIC_GUARDED_BY(mu_);
};

// Process-wide default registry. Component constructors bind here (via
// DefaultRegistry) so the benches can dump one coherent snapshot via
// --metrics-out.
MetricRegistry& GlobalRegistry();

// The registry newly constructed instrumented objects bind: the
// innermost ScopedDefaultRegistry override on the calling thread, else
// GlobalRegistry(). Sweep workers install their task's shard registry as
// the override so object construction never races on the global maps.
MetricRegistry& DefaultRegistry();

// RAII thread-local override of DefaultRegistry(). Nestable; the previous
// override is restored on destruction.
class ScopedDefaultRegistry {
 public:
  explicit ScopedDefaultRegistry(MetricRegistry* registry);
  ~ScopedDefaultRegistry();

  ScopedDefaultRegistry(const ScopedDefaultRegistry&) = delete;
  ScopedDefaultRegistry& operator=(const ScopedDefaultRegistry&) = delete;

 private:
  MetricRegistry* previous_;
};

}  // namespace snic::obs

#endif  // SNIC_OBS_METRICS_H_
