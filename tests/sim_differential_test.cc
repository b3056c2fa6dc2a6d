// Differential harness for the replay fast path (docs/PERFORMANCE.md): the
// optimized engine (SoA sim::Cache, streaming codec, PreparedTrace merge)
// against the scalar sim::ReferenceReplay / sim::ReferenceCache oracle it
// must match byte for byte.
//
// Coverage contract (the regression gate for every future hot-path change):
//  - >= 1000 seeded random traces — Zipf-skewed working sets plus
//    adversarial constant-stride scans that land whole traces in a handful
//    of sets, all four access types, addresses below 2^44 — replayed under
//    randomized machine shapes (L2 size, partition policy, core count,
//    warmup fraction) through every fast entry point: materialized,
//    encoded-streaming, and pre-prepared.
//  - Exact match on end state: every per-core counter, the L2 CacheStats,
//    and the BusStats — EXPECT_EQ on integers, never near-equality.
//  - Exact match on observable side effects: metric-registry ExportJson and
//    binary trace-ring images.
//  - The same scenario set fanned out over the sweep runtime at 1 and 8
//    workers produces identical outcomes (the bench gates --jobs=1 vs
//    --jobs=8 byte-identity; this pins it at unit-test scale).
//  - Raw cache differential: random op streams (accesses interleaved with
//    FlushDomain / SecDCP ResizeDomain) under every policy, pseudo-LRU on
//    and off, associativities from 1 to the 64-way cap — exercising the
//    lru==0-means-invalid victim-scan invariant end to end.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/runtime/thread_pool.h"
#include "src/sim/mem_access.h"
#include "src/sim/reference.h"
#include "src/sim/replay.h"

namespace snic::sim {
namespace {

// ---------------------------------------------------------------------------
// Random workloads.

enum class Workload { kZipf, kStride, kMixed };

// Zipf-skewed line pick: u^3 concentrates mass on low ranks (a few hot
// lines, a long cold tail) like the paper's NF working sets.
uint64_t ZipfLine(Rng& rng, uint64_t lines) {
  const double u = rng.NextDouble();
  return static_cast<uint64_t>(u * u * u * static_cast<double>(lines));
}

InstructionTrace MakeTrace(Rng& rng, size_t events, Workload workload) {
  InstructionTrace trace;
  // Base far into the address space but below the engines' 2^44 cap.
  const uint64_t base = rng.NextU64() & ((uint64_t{1} << 43) - 1);
  const uint64_t lines = 1 + rng.NextBounded(4096);
  // Adversarial stride: a power-of-two multiple of the line size, so whole
  // traces collapse onto few sets of the smaller configurations and force
  // eviction storms through full ways; occasionally negative.
  const int64_t stride =
      (int64_t{64} << rng.NextBounded(10)) * (rng.NextBounded(4) == 0 ? -1 : 1);
  uint64_t cursor = base;
  for (size_t i = 0; i < events; ++i) {
    uint64_t addr;
    const bool use_stride =
        workload == Workload::kStride ||
        (workload == Workload::kMixed && rng.NextBounded(2) == 0);
    if (use_stride) {
      cursor = (cursor + static_cast<uint64_t>(stride)) &
               ((uint64_t{1} << 44) - 1);
      addr = cursor;
    } else {
      addr = (base + ZipfLine(rng, lines) * 64 + rng.NextBounded(64)) &
             ((uint64_t{1} << 44) - 1);
    }
    // ~6% uncached (semaphore/device-register traffic), the rest split
    // between loads and stores.
    const uint64_t kind = rng.NextBounded(100);
    AccessType type;
    if (kind < 3) {
      type = AccessType::kUncachedRead;
    } else if (kind < 6) {
      type = AccessType::kUncachedWrite;
    } else if (kind < 40) {
      type = AccessType::kWrite;
    } else {
      type = AccessType::kRead;
    }
    // Compute runs: often none, sometimes short, occasionally long enough
    // to change which core the merge picks next.
    const uint64_t c = rng.NextBounded(10);
    const uint32_t compute =
        c < 4 ? 0
              : (c < 9 ? static_cast<uint32_t>(rng.NextBounded(16))
                       : static_cast<uint32_t>(rng.NextBounded(4096)));
    trace.Record(addr, type, compute);
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Scenario: one randomized (traces, machine, warmup) cell.

struct Scenario {
  std::vector<InstructionTrace> traces;
  MachineConfig config;
  double warmup = 0.1;
};

Scenario MakeScenario(uint64_t seed) {
  Rng rng(0x5eed0000 + seed);
  Scenario s;
  const uint32_t cores = 2 + static_cast<uint32_t>(seed % 3);  // 2..4
  const Workload workloads[] = {Workload::kZipf, Workload::kStride,
                                Workload::kMixed};
  for (uint32_t c = 0; c < cores; ++c) {
    const size_t events = 200 + rng.NextBounded(800);
    s.traces.push_back(MakeTrace(rng, events, workloads[(seed + c) % 3]));
  }
  const uint64_t l2_sizes[] = {KiB(32), KiB(128), KiB(512)};
  s.config = MachineConfig::MarvellLike(cores, l2_sizes[seed % 3],
                                        /*secure=*/(seed & 1) != 0);
  const double warmups[] = {0.0, 0.1, 0.3, 0.5};
  s.warmup = warmups[(seed / 2) % 4];
  return s;
}

void ExpectSameResult(const ReplayResult& ref, const ReplayResult& fast,
                      uint64_t seed, const char* path) {
  ASSERT_EQ(ref.cores.size(), fast.cores.size()) << path << " seed " << seed;
  for (size_t c = 0; c < ref.cores.size(); ++c) {
    SCOPED_TRACE(testing::Message()
                 << path << " seed " << seed << " core " << c);
    EXPECT_EQ(ref.cores[c].instructions, fast.cores[c].instructions);
    EXPECT_EQ(ref.cores[c].cycles, fast.cores[c].cycles);
    EXPECT_EQ(ref.cores[c].mem_accesses, fast.cores[c].mem_accesses);
    EXPECT_EQ(ref.cores[c].l1_misses, fast.cores[c].l1_misses);
    EXPECT_EQ(ref.cores[c].l2_misses, fast.cores[c].l2_misses);
  }
  SCOPED_TRACE(testing::Message() << path << " seed " << seed);
  EXPECT_EQ(ref.l2_stats.hits, fast.l2_stats.hits);
  EXPECT_EQ(ref.l2_stats.misses, fast.l2_stats.misses);
  EXPECT_EQ(ref.l2_stats.evictions, fast.l2_stats.evictions);
  EXPECT_EQ(ref.bus_stats.requests, fast.bus_stats.requests);
  EXPECT_EQ(ref.bus_stats.total_wait_cycles, fast.bus_stats.total_wait_cycles);
  EXPECT_EQ(ref.bus_stats.total_busy_cycles, fast.bus_stats.total_busy_cycles);
}

// Order-independent fingerprint of a result, for the jobs=1-vs-8 run.
uint64_t Fingerprint(const ReplayResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const auto& core : r.cores) {
    mix(core.instructions);
    mix(core.cycles);
    mix(core.mem_accesses);
    mix(core.l1_misses);
    mix(core.l2_misses);
  }
  mix(r.l2_stats.hits);
  mix(r.l2_stats.misses);
  mix(r.l2_stats.evictions);
  mix(r.bus_stats.requests);
  mix(r.bus_stats.total_wait_cycles);
  mix(r.bus_stats.total_busy_cycles);
  return h;
}

constexpr uint64_t kScenarios = 400;  // 2-4 traces each: >= 1000 traces

TEST(SimDifferentialTest, RandomTracesMatchReferenceOnEveryFastPath) {
  size_t total_traces = 0;
  for (uint64_t seed = 0; seed < kScenarios; ++seed) {
    const Scenario s = MakeScenario(seed);
    total_traces += s.traces.size();

    std::vector<const InstructionTrace*> mix;
    std::vector<EncodedTrace> encoded;
    for (const auto& t : s.traces) {
      mix.push_back(&t);
      encoded.push_back(EncodedTrace::Encode(t));
    }

    const ReplayResult ref = ReferenceReplay(s.config, mix, s.warmup);

    // Fast path 1: materialized events.
    ExpectSameResult(ref, Replay(s.config, mix, s.warmup), seed,
                     "materialized");
    // Fast path 2: streamed straight from the encoded bytes.
    ExpectSameResult(ref, Replay(s.config, encoded, s.warmup), seed,
                     "encoded");
    // Fast path 3: prepared once (per-trace private-L1 pass), then merged —
    // the form the Fig. 5 benches amortize across sweeps.
    std::vector<PreparedTrace> prepared;
    std::vector<const PreparedTrace*> prepared_mix;
    for (const auto& enc : encoded) {
      prepared.push_back(
          PreparedTrace::Prepare(enc, s.config.l1, s.warmup));
    }
    for (const auto& p : prepared) {
      prepared_mix.push_back(&p);
    }
    ExpectSameResult(ref, Replay(s.config, prepared_mix), seed, "prepared");

    // Codec round-trip while we are here: decode must reproduce the
    // recording byte for byte.
    for (size_t t = 0; t < s.traces.size(); ++t) {
      InstructionTrace decoded;
      ASSERT_TRUE(TraceDecoder::DecodeAll(encoded[t], &decoded).ok());
      ASSERT_EQ(decoded.size(), s.traces[t].size());
      for (size_t i = 0; i < decoded.size(); ++i) {
        ASSERT_EQ(decoded.events()[i].addr, s.traces[t].events()[i].addr);
        ASSERT_EQ(decoded.events()[i].type, s.traces[t].events()[i].type);
        ASSERT_EQ(decoded.events()[i].compute_instructions,
                  s.traces[t].events()[i].compute_instructions);
      }
    }
    if (HasFailure()) {
      FAIL() << "stopping at first diverging scenario, seed " << seed;
    }
  }
  EXPECT_GE(total_traces, 1000u) << "harness must cover >= 1000 traces";
}

TEST(SimDifferentialTest, JobsOneAndEightProduceIdenticalOutcomes) {
  // The bench suite proves --jobs=1 vs --jobs=8 byte-identity on the Fig. 5
  // sweeps; this pins the same property for the differential scenarios: the
  // fast engine's outcome must not depend on which worker replays it.
  auto outcome = [](uint64_t seed) {
    const Scenario s = MakeScenario(seed);
    std::vector<const InstructionTrace*> mix;
    for (const auto& t : s.traces) {
      mix.push_back(&t);
    }
    return Fingerprint(Replay(s.config, mix, s.warmup));
  };

  constexpr uint64_t kJobsScenarios = 64;
  std::vector<uint64_t> serial(kJobsScenarios);
  runtime::ThreadPool one(1);
  runtime::ParallelFor(&one, kJobsScenarios,
                       [&](size_t i) { serial[i] = outcome(i); });

  std::vector<uint64_t> parallel(kJobsScenarios);
  runtime::ThreadPool eight(8);
  runtime::ParallelFor(&eight, kJobsScenarios,
                       [&](size_t i) { parallel[i] = outcome(i); });

  EXPECT_EQ(serial, parallel);
}

TEST(SimDifferentialTest, MetricAndTraceRingSideEffectsMatchReference) {
  // The oracle contract covers side effects too: with obs hooks attached,
  // both engines must register the same series with the same final values
  // and lay down byte-identical binary trace rings.
  for (uint64_t seed = 0; seed < 16; ++seed) {
    const Scenario s = MakeScenario(seed);
    std::vector<const InstructionTrace*> mix;
    for (const auto& t : s.traces) {
      mix.push_back(&t);
    }

    obs::MetricRegistry ref_metrics;
    obs::TraceRing ref_ring(1 << 16);
    ReplayObs ref_obs;
    ref_obs.metrics = &ref_metrics;
    ref_obs.trace = &ref_ring;
    const ReplayResult ref = ReferenceReplay(s.config, mix, s.warmup, &ref_obs);

    obs::MetricRegistry fast_metrics;
    obs::TraceRing fast_ring(1 << 16);
    ReplayObs fast_obs;
    fast_obs.metrics = &fast_metrics;
    fast_obs.trace = &fast_ring;
    const ReplayResult fast = Replay(s.config, mix, s.warmup, &fast_obs);

    ExpectSameResult(ref, fast, seed, "obs");
    EXPECT_EQ(ref_metrics.ExportJson(), fast_metrics.ExportJson())
        << "seed " << seed;
    EXPECT_EQ(ref_ring.SerializeBinary(), fast_ring.SerializeBinary())
        << "seed " << seed;
  }
}

// FNV-1a over a byte string, chained from `h`.
uint64_t Fnv1a(uint64_t h, const std::string& bytes) {
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(SimDifferentialTest, ReplayTelemetryKnownAnswers) {
  // The differential test above holds the engines to each other, so it
  // cannot see a telemetry change both of them make. This pin holds them to
  // recorded answers: FNV-1a of every cell's metric snapshot and binary
  // trace ring over 2 and 4 cores x FCFS / round-robin / temporal bus x
  // shared / partitioned L2 x warmup 0, 0.1, 0.25. Each cell replays twice
  // into one registry, so the second publish adds onto existing series.
  const BusPolicy buses[] = {BusPolicy::kFcfs, BusPolicy::kRoundRobin,
                             BusPolicy::kTemporalPartition};
  const PartitionPolicy l2_policies[] = {PartitionPolicy::kShared,
                                         PartitionPolicy::kStaticEqual};
  const double warmups[] = {0.0, 0.1, 0.25};
  uint64_t metrics_digest = 0xcbf29ce484222325ULL;
  uint64_t ring_digest = 0xcbf29ce484222325ULL;
  int cells = 0;
  for (uint32_t cores : {2u, 4u}) {
    for (BusPolicy bus : buses) {
      for (PartitionPolicy l2 : l2_policies) {
        for (double warmup : warmups) {
          Rng rng(0x7e1e0000 + static_cast<uint64_t>(cells));
          std::vector<InstructionTrace> traces;
          std::vector<const InstructionTrace*> mix;
          for (uint32_t c = 0; c < cores; ++c) {
            traces.push_back(MakeTrace(rng, 600, static_cast<Workload>(c % 3)));
          }
          for (const auto& t : traces) {
            mix.push_back(&t);
          }
          MachineConfig config = MachineConfig::MarvellLike(cores, KiB(32),
                                                            /*secure=*/false);
          config.l2.policy = l2;
          config.bus_policy = bus;

          std::string exports[2];
          std::string rings[2];
          for (int engine = 0; engine < 2; ++engine) {
            obs::MetricRegistry metrics;
            obs::TraceRing ring(1 << 16);
            ReplayObs hooks;
            hooks.metrics = &metrics;
            hooks.trace = &ring;
            hooks.labels = {{"config", "pin"}};
            for (int rep = 0; rep < 2; ++rep) {
              if (engine == 0) {
                Replay(config, mix, warmup, &hooks);
              } else {
                ReferenceReplay(config, mix, warmup, &hooks);
              }
            }
            exports[engine] = metrics.ExportJson();
            rings[engine] = ring.SerializeBinary();
          }
          EXPECT_EQ(exports[0], exports[1]) << "cell " << cells;
          EXPECT_EQ(rings[0], rings[1]) << "cell " << cells;
          metrics_digest = Fnv1a(metrics_digest, exports[0]);
          ring_digest = Fnv1a(ring_digest, rings[0]);
          ++cells;
        }
      }
    }
  }
  EXPECT_EQ(cells, 36);
  EXPECT_EQ(metrics_digest, 0x7a7982bfde017c24ULL) << std::hex << metrics_digest;
  EXPECT_EQ(ring_digest, 0xb4665cbc84a55346ULL) << std::hex << ring_digest;
}

// ---------------------------------------------------------------------------
// Raw cache differential: Cache vs ReferenceCache under op streams the
// replay engines never issue (flush and repartition mid-stream).

void ExpectSameStats(const CacheStats& ref, const CacheStats& fast) {
  EXPECT_EQ(ref.hits, fast.hits);
  EXPECT_EQ(ref.misses, fast.misses);
  EXPECT_EQ(ref.evictions, fast.evictions);
}

TEST(SimDifferentialTest, CacheMatchesReferenceUnderFlushAndResize) {
  const PartitionPolicy policies[] = {PartitionPolicy::kShared,
                                      PartitionPolicy::kStaticEqual,
                                      PartitionPolicy::kSecDcp};
  // 1-way direct-mapped through the 64-way cap; 4/8/16 take the
  // AVX2/unrolled scan paths when built for x86-64.
  const uint32_t associativities[] = {1, 2, 4, 8, 16, 64};
  for (PartitionPolicy policy : policies) {
    for (uint32_t assoc : associativities) {
      for (bool plru : {false, true}) {
        CacheConfig cfg;
        cfg.size_bytes = uint64_t{assoc} * 64 * 16;  // 16 sets at any width
        cfg.line_bytes = 64;
        cfg.associativity = assoc;
        cfg.policy = policy;
        cfg.num_domains = policy == PartitionPolicy::kShared
                              ? 1
                              : std::min(assoc, 3u);
        cfg.pseudo_lru = plru;
        Cache fast(cfg);
        ReferenceCache ref(cfg);
        ASSERT_EQ(ref.num_sets(), fast.num_sets());

        Rng rng(0xd1ff0000 + static_cast<uint64_t>(policy) * 100 + assoc * 2 +
                (plru ? 1 : 0));
        for (int op = 0; op < 20000; ++op) {
          const uint32_t domain =
              static_cast<uint32_t>(rng.NextBounded(cfg.num_domains));
          const uint64_t roll = rng.NextBounded(1000);
          if (roll < 5) {
            ref.FlushDomain(domain);
            fast.FlushDomain(domain);
          } else if (roll < 8 && policy == PartitionPolicy::kSecDcp) {
            const uint32_t ways =
                1 + static_cast<uint32_t>(rng.NextBounded(assoc));
            ref.ResizeDomain(domain, ways);
            fast.ResizeDomain(domain, ways);
            ASSERT_EQ(ref.WaysForDomain(domain), fast.WaysForDomain(domain));
          } else {
            // Small line pool so sets fill, conflict, and evict constantly.
            const uint64_t addr = rng.NextBounded(256) * 64;
            ASSERT_EQ(ref.Access(addr, domain), fast.Access(addr, domain))
                << "op " << op << " assoc " << assoc;
          }
        }
        ExpectSameStats(ref.stats(), fast.stats());
        if (HasFailure()) {
          FAIL() << "diverged: policy " << static_cast<int>(policy)
                 << " assoc " << assoc << " plru " << plru;
        }
      }
    }
  }
}

}  // namespace
}  // namespace snic::sim
