// Measures the runtime cost of the observability layer on the Fig. 5a hot
// path: the same colocation replay is timed with no obs hooks (every
// instrumentation site degrades to a null-pointer check), with a live
// metrics registry attached, and with metrics plus the binary trace ring
// recording every DRAM round trip.
//
// Budgets, both enforced in the verdict and the exit code: metrics alone
// must stay below 20%, and metrics+trace must stay within 80% — the bar
// that lets tracing stay ON for the big sweeps. A replay publishes its
// metrics once, after the run (src/sim/replay.cc), so the metrics variant
// pays only a per-grant bus-wait record and that publish; its budget keeps
// 2x headroom over the worst measured full run (docs/PERFORMANCE.md,
// "Effect on the observability budgets"). The budgets were recalibrated
// when the prepared-trace fast path landed: instrumentation
// still costs the same ~0.5-2.5 ns per replayed event it always did (ring
// records are fixed-size stores flushed at task join, see
// src/obs/trace_ring.h; an allocate-and-stringify event log costs ~10x
// that), but the uninstrumented baseline is now ~7x faster, so a fixed
// per-event cost reads as a double-digit percentage. The claim that
// matters is preserved with room to spare: even with metrics+trace
// attached, a sweep runs ~4x faster than the pre-rewrite engine did
// uninstrumented (docs/PERFORMANCE.md). Results land in
// BENCH_obs_overhead.json.
//
// --quick replays are informational: at 20k events/NF the caches never
// fully warm, so DRAM round trips — and therefore trace records — are
// ~1.5x denser per millisecond than on the full-size replay the budgets
// are calibrated against, and the ratio reads high. Quick runs print and
// record the overheads but always exit 0; only full runs gate.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig5_common.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMetricsBudgetPct = 20.0;
constexpr double kTraceBudgetPct = 80.0;

// Scheduler/co-tenant interference on a shared host only ever *adds* time,
// so the minimum over interleaved reps is the noise-robust estimator of a
// variant's true cost — medians still carry several percent of asymmetric
// contention noise, which would swamp a low-single-digit budget.
double MinMs(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snic;
  using namespace snic::bench;
  RequireKnownFlags(argc, argv, {"--quick", "--jobs=", "--seed=", "--out="});
  const size_t jobs = JobsFlag(argc, argv);
  const bool quick = QuickMode(argc, argv);
  // --seed=S varies the synthetic NF workload (default matches the
  // committed pin); the seed is echoed into the verdict JSON.
  const uint64_t seed = U64Flag(argc, argv, "--seed", 2024);

  PrintHeader("Observability overhead on the Fig. 5a replay path",
              "budgets: metrics <20%, metrics+trace <=80% vs the "
              "uninstrumented fast path");

  // --jobs=N: sweep workers; the checksum (and so the replay results) is
  // byte-identical at every N, and each timed variant parallelizes the same
  // way. The budgets are calibrated on the serial path — at jobs > 1 the
  // measured ratio also absorbs scheduler noise (worst when workers
  // oversubscribe the cores), so gate the budgets with --jobs=1.
  const auto pool = MakePool(jobs);


  const size_t events = quick ? 20'000 : 120'000;
  const size_t reps = quick ? 5 : 9;
  std::printf("Recording NF traces (%zu events/NF, %zu timed reps, seed "
              "%llu)...\n\n",
              events, reps, static_cast<unsigned long long>(seed));
  const auto traces =
      PrepareNfTraces(RecordAndEncodeNfTraces(events, seed, pool.get()));

  // The full Fig. 5a inner loop at one cache size: every unordered NF pair,
  // replayed under both configurations.
  std::vector<SweepJob> pairs;
  for (size_t i = 0; i < kNumNfs; ++i) {
    for (size_t j = i; j < kNumNfs; ++j) {
      pairs.push_back(SweepJob{{i, j}, KiB(512)});
    }
  }
  auto sweep = [&traces, &pairs, &pool](obs::MetricRegistry* metrics,
                                        obs::TraceRing* trace) {
    const auto degradations =
        RunDegradationSweep(pool.get(), traces, pairs, metrics, trace,
                            SweepTrace::kAllJobs);
    double checksum = 0.0;
    for (const auto& degradation : degradations) {
      checksum += degradation[0] + degradation[1];
    }
    return checksum;
  };
  // The three variants are interleaved within each rep (uninstrumented,
  // then metrics, then metrics+trace) rather than timed as three sequential
  // blocks: machine drift across the run then biases every variant equally
  // instead of whichever block ran last, which is what makes a low-single-
  // digit-percent budget measurable on shared hardware.
  obs::MetricRegistry metrics;
  obs::TraceRing trace;  // unbounded sink; per-task shards merge at join
  struct Variant {
    const char* label;
    obs::MetricRegistry* metrics;
    obs::TraceRing* trace;
    std::vector<double> samples;
    double checksum = 0.0;
  };
  Variant variants[3] = {{"uninstrumented", nullptr, nullptr, {}, 0.0},
                         {"metrics", &metrics, nullptr, {}, 0.0},
                         {"metrics+trace", &metrics, &trace, {}, 0.0}};
  std::printf("Timing interleaved sweeps (uninstrumented / metrics / "
              "metrics+trace per rep)...\n");
  for (size_t r = 0; r < reps; ++r) {
    for (Variant& v : variants) {
      if (v.metrics != nullptr) {
        v.metrics->ResetAll();
      }
      if (v.trace != nullptr) {
        v.trace->Clear();  // keeps interned names; drops records and lanes
      }
      const auto start = Clock::now();
      v.checksum += sweep(v.metrics, v.trace);
      const auto stop = Clock::now();
      v.samples.push_back(
          std::chrono::duration<double, std::milli>(stop - start).count());
    }
  }
  for (const Variant& v : variants) {
    std::printf("  (%s checksum %.6f)\n", v.label, v.checksum);
  }
  const double base_ms = MinMs(variants[0].samples);
  const double metrics_ms = MinMs(variants[1].samples);
  const double trace_ms = MinMs(variants[2].samples);

  const double metrics_pct = (metrics_ms / base_ms - 1.0) * 100.0;
  const double trace_pct = (trace_ms / base_ms - 1.0) * 100.0;
  const bool metrics_ok = metrics_pct < kMetricsBudgetPct;
  const bool trace_ok = trace_pct <= kTraceBudgetPct;
  std::printf("\nbest sweep: uninstrumented %.1f ms, metrics %.1f ms "
              "(%+.2f%%), metrics+trace %.1f ms (%+.2f%%)\n",
              base_ms, metrics_ms, metrics_pct, trace_ms, trace_pct);
  std::printf("  (final rep ring: %zu records kept, %llu evicted)\n",
              trace.size(),
              static_cast<unsigned long long>(trace.evicted()));
  std::printf("budget: metrics overhead below %.0f%%          ->  %s\n",
              kMetricsBudgetPct, metrics_ok ? "PASS" : "FAIL");
  std::printf("budget: metrics+trace overhead within %.0f%%   ->  %s\n",
              kTraceBudgetPct, trace_ok ? "PASS" : "FAIL");
  if (quick) {
    std::printf("  (quick mode: informational only — budgets gate on the "
                "full-size replay)\n");
  }

  const std::string out_path = [&] {
    const std::string flag = FlagValue(argc, argv, "--out");
    return flag.empty() ? std::string("BENCH_obs_overhead.json") : flag;
  }();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"obs_overhead\",\"seed\":%llu,"
               "\"events_per_nf\":%zu,"
               "\"reps\":%zu,\"uninstrumented_ms\":%.3f,"
               "\"metrics_ms\":%.3f,\"metrics_overhead_pct\":%.3f,"
               "\"metrics_trace_ms\":%.3f,\"trace_overhead_pct\":%.3f,"
               "\"ring_records\":%zu,\"ring_evicted\":%llu,"
               "\"budget_pct\":%.1f,\"trace_budget_pct\":%.1f,"
               "\"quick\":%s,\"pass\":%s}\n",
               static_cast<unsigned long long>(seed), events, reps, base_ms,
               metrics_ms, metrics_pct, trace_ms,
               trace_pct, trace.size(),
               static_cast<unsigned long long>(trace.evicted()),
               kMetricsBudgetPct, kTraceBudgetPct, quick ? "true" : "false",
               metrics_ok && trace_ok ? "true" : "false");
  std::fclose(f);
  std::printf("Wrote %s\n", out_path.c_str());
  return (quick || (metrics_ok && trace_ok)) ? 0 : 1;
}
