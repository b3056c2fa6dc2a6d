// Tests for the deterministic parallel sweep runtime (src/runtime): the
// thread pool itself, task-indexed seed derivation, shard-and-merge metric
// semantics, and the headline invariant — a Fig. 5-style sweep produces
// identical results and identical merged snapshots at every jobs count.

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/fig5_common.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"

namespace snic::runtime {
namespace {

TEST(ThreadPoolTest, SubmitReturnsFutureValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.Submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  ParallelFor(&pool, kTasks, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInlineInAscendingOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 10, [&order](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(&pool, 16,
                           [](size_t i) {
                             if (i == 7) {
                               throw std::runtime_error("body failed");
                             }
                           }),
               std::runtime_error);
}

TEST(DeriveTaskSeedTest, PureFunctionOfBaseAndIndex) {
  EXPECT_EQ(DeriveTaskSeed(2024, 0), DeriveTaskSeed(2024, 0));
  EXPECT_EQ(DeriveTaskSeed(2024, 41), DeriveTaskSeed(2024, 41));
  EXPECT_NE(DeriveTaskSeed(2024, 0), DeriveTaskSeed(2024, 1));
  EXPECT_NE(DeriveTaskSeed(2024, 0), DeriveTaskSeed(2025, 0));
}

TEST(DeriveTaskSeedTest, NoCollisionsOverASweep) {
  std::set<uint64_t> seeds;
  for (uint64_t task = 0; task < 10'000; ++task) {
    seeds.insert(DeriveTaskSeed(7, task));
  }
  EXPECT_EQ(seeds.size(), 10'000u);
}

// Builds the registry a serial run over `tasks` task bodies would build.
void RunSerially(size_t num_tasks, obs::MetricRegistry* target,
                 const std::function<void(size_t, obs::MetricRegistry&)>& body) {
  for (size_t i = 0; i < num_tasks; ++i) {
    body(i, *target);
  }
}

// One representative task body touching all three series kinds.
void RecordTask(size_t task, obs::MetricRegistry& reg) {
  reg.GetCounter("sweep.tasks").Inc();
  reg.GetCounter("sweep.work", {{"parity", task % 2 ? "odd" : "even"}})
      .Inc(task + 1);
  reg.GetGauge("sweep.last_task").Set(static_cast<double>(task));
  auto& hist = reg.GetHistogram("sweep.cost", {}, 0.0, 128.0, 16);
  hist.Record(static_cast<double>(task % 128));
  hist.Record(static_cast<double>((task * 7) % 128));
}

TEST(MetricShardsTest, MergeMatchesSerialRegistry) {
  constexpr size_t kTasks = 37;
  obs::MetricRegistry serial;
  RunSerially(kTasks, &serial, RecordTask);

  MetricShards shards(kTasks);
  for (size_t i = 0; i < kTasks; ++i) {
    RecordTask(i, shards.shard(i));
  }
  obs::MetricRegistry merged;
  shards.MergeInto(&merged);

  // Counters sum; the gauge reflects the highest-indexed task (last writer
  // of the serial loop); histogram buckets add.
  EXPECT_EQ(merged.FindCounter("sweep.tasks")->value(), kTasks);
  EXPECT_EQ(merged.FindGauge("sweep.last_task")->value(), kTasks - 1);
  EXPECT_EQ(merged.FindHistogram("sweep.cost")->count(), 2 * kTasks);
  EXPECT_EQ(merged.ExportJson(), serial.ExportJson());
  EXPECT_EQ(merged.ExportText(), serial.ExportText());
}

TEST(MetricShardsTest, GaugeLastWriteIsByTaskIndexNotMergeTime) {
  MetricShards shards(4);
  // Only tasks 2 and 0 touch the gauge; task 2 must win regardless of the
  // order the shards were written in.
  shards.shard(2).GetGauge("g").Set(222.0);
  shards.shard(0).GetGauge("g").Set(1.0);
  obs::MetricRegistry merged;
  shards.MergeInto(&merged);
  EXPECT_EQ(merged.FindGauge("g")->value(), 222.0);
}

TEST(ShardedParallelForTest, MatchesSerialAtAnyJobsCount) {
  constexpr size_t kTasks = 53;
  obs::MetricRegistry serial;
  ShardedParallelFor(nullptr, kTasks, &serial, RecordTask);

  ThreadPool pool(4);
  obs::MetricRegistry parallel;
  ShardedParallelFor(&pool, kTasks, &parallel, RecordTask);

  EXPECT_EQ(parallel.ExportJson(), serial.ExportJson());
}

TEST(MetricRegistryTest, SnapshotSafeWhileShardsMerge) {
  obs::MetricRegistry target;
  std::atomic<bool> stop{false};
  std::thread merger([&target, &stop] {
    uint64_t round = 0;
    do {  // at least one full merge even if the main thread finishes first
      MetricShards shards(8);
      for (size_t i = 0; i < shards.size(); ++i) {
        RecordTask(round * 8 + i, shards.shard(i));
      }
      shards.MergeInto(&target);
      ++round;
    } while (!stop.load());
  });
  for (int i = 0; i < 200; ++i) {
    // Must not crash or tear; the exact values race benignly with merges.
    const std::string json = target.ExportJson();
    EXPECT_FALSE(json.empty());
    target.NumSeries();
  }
  stop.store(true);
  merger.join();
  EXPECT_GT(target.FindCounter("sweep.tasks")->value(), 0u);
}

// The headline invariant, end to end on the real Fig. 5 machinery: a small
// sweep replayed at --jobs=1 and --jobs=4 yields bit-identical per-NF
// degradations, merged metric snapshots, and stitched trace logs.
TEST(Fig5SweepTest, SerialAndParallelRunsAreIdentical) {
  constexpr size_t kEvents = 2'000;
  const auto serial_traces = bench::RecordNfTraces(kEvents, 2024, nullptr);

  ThreadPool pool(4);
  const auto parallel_traces = bench::RecordNfTraces(kEvents, 2024, &pool);

  for (size_t k = 0; k < serial_traces.size(); ++k) {
    ASSERT_EQ(serial_traces[k].size(), parallel_traces[k].size()) << k;
    const auto& se = serial_traces[k].events();
    const auto& pe = parallel_traces[k].events();
    for (size_t i = 0; i < se.size(); ++i) {
      ASSERT_EQ(se[i].addr, pe[i].addr) << "nf " << k << " event " << i;
      ASSERT_EQ(se[i].compute_instructions, pe[i].compute_instructions);
      ASSERT_EQ(static_cast<int>(se[i].type), static_cast<int>(pe[i].type));
    }
  }

  std::vector<bench::SweepJob> jobs;
  for (size_t i = 0; i < bench::kNumNfs; ++i) {
    for (size_t j = i; j < bench::kNumNfs; ++j) {
      jobs.push_back(bench::SweepJob{{i, j}, KiB(256)});
    }
  }

  // The sweep drivers replay from the encoded-then-prepared form
  // (bench/fig5_common.h).
  const auto serial_encoded =
      bench::PrepareNfTraces(bench::EncodeNfTraces(serial_traces));
  const auto parallel_encoded =
      bench::PrepareNfTraces(bench::EncodeNfTraces(parallel_traces));

  obs::MetricRegistry serial_metrics;
  obs::TraceRing serial_trace;
  const auto serial_results = bench::RunDegradationSweep(
      nullptr, serial_encoded, jobs, &serial_metrics, &serial_trace,
      bench::SweepTrace::kAllJobs);

  obs::MetricRegistry parallel_metrics;
  obs::TraceRing parallel_trace;
  const auto parallel_results = bench::RunDegradationSweep(
      &pool, parallel_encoded, jobs, &parallel_metrics, &parallel_trace,
      bench::SweepTrace::kAllJobs);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (size_t j = 0; j < serial_results.size(); ++j) {
    ASSERT_EQ(serial_results[j].size(), parallel_results[j].size());
    for (size_t c = 0; c < serial_results[j].size(); ++c) {
      EXPECT_EQ(serial_results[j][c], parallel_results[j][c])
          << "job " << j << " core " << c;
    }
  }
  EXPECT_EQ(serial_metrics.ExportJson(), parallel_metrics.ExportJson());
  // Both the converted JSON and the raw binary image must be byte-identical:
  // the stitched parallel rings intern names and order records exactly like
  // the serial ring.
  EXPECT_EQ(serial_trace.ToChromeJson(), parallel_trace.ToChromeJson());
  EXPECT_EQ(serial_trace.SerializeBinary(), parallel_trace.SerializeBinary());
}

}  // namespace
}  // namespace snic::runtime
