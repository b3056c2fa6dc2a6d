// Tests for the observability layer: metric semantics, label
// canonicalization, exporter round-trips through the bundled JSON parser,
// and the end-to-end series and trace a replay publishes.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/snic_device.h"
#include "src/crypto/keys.h"
#include "src/mgmt/nic_os.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/sim/mem_access.h"
#include "src/sim/replay.h"

namespace snic::obs {
namespace {

TEST(Counter, IncrementAndReset) {
  MetricRegistry registry;
  Counter& c = registry.GetCounter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  MetricRegistry registry;
  Gauge& g = registry.GetGauge("test.gauge");
  g.Set(3.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(LatencyHistogram, BasicStatistics) {
  LatencyHistogram h(0.0, 100.0, 10);
  EXPECT_TRUE(std::isnan(h.MinValue()));
  EXPECT_TRUE(std::isnan(h.MeanValue()));
  EXPECT_TRUE(std::isnan(h.PercentileEstimate(50)));
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.MinValue(), 1.0);
  EXPECT_DOUBLE_EQ(h.MaxValue(), 100.0);
  EXPECT_DOUBLE_EQ(h.MeanValue(), 50.5);
  // Bucketed estimate: within one bucket width (10) of the exact median.
  EXPECT_NEAR(h.PercentileEstimate(50), 50.0, 10.0);
  EXPECT_GE(h.PercentileEstimate(99), h.PercentileEstimate(50));
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.MaxValue()));
}

TEST(LatencyHistogram, OutOfRangeSamplesLandInEdgeBuckets) {
  LatencyHistogram h(0.0, 10.0, 5);
  h.Record(-100.0);
  h.Record(1e9);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.MinValue(), -100.0);
  EXPECT_DOUBLE_EQ(h.MaxValue(), 1e9);
}

TEST(MetricRegistry, LabelsAreCanonicalized) {
  MetricRegistry registry;
  Counter& a = registry.GetCounter("hits", {{"core", "1"}, {"level", "l1"}});
  Counter& b = registry.GetCounter("hits", {{"level", "l1"}, {"core", "1"}});
  EXPECT_EQ(&a, &b);  // same series regardless of label order
  Counter& c = registry.GetCounter("hits", {{"core", "2"}, {"level", "l1"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(registry.NumSeries(), 2u);
  EXPECT_EQ(registry.FindCounter("hits", {{"level", "l1"}, {"core", "1"}}),
            &a);
  EXPECT_EQ(registry.FindCounter("hits"), nullptr);
}

TEST(MetricRegistry, ReferencesSurviveInsertsAndResetAll) {
  MetricRegistry registry;
  Counter& first = registry.GetCounter("series.0");
  first.Inc(7);
  for (int i = 1; i < 200; ++i) {
    registry.GetCounter("series." + std::to_string(i));
  }
  EXPECT_EQ(first.value(), 7u);  // not invalidated by later registrations
  registry.ResetAll();
  EXPECT_EQ(first.value(), 0u);  // same object, zeroed
  EXPECT_EQ(registry.NumSeries(), 200u);
}

TEST(MetricRegistry, ReleaseDropsASeriesAtItsLastHold) {
  MetricRegistry registry;
  Counter& counter = registry.GetCounter("held", {{"nf", "1"}});
  registry.GetCounter("held", {{"nf", "1"}});  // a second holder
  Gauge& gauge = registry.GetGauge("depth");
  registry.Release({&counter}, {&gauge});
  EXPECT_NE(registry.FindCounter("held", {{"nf", "1"}}), nullptr);
  EXPECT_EQ(registry.FindGauge("depth"), nullptr);
  registry.Release({&counter, nullptr});
  EXPECT_EQ(registry.FindCounter("held", {{"nf", "1"}}), nullptr);
  EXPECT_EQ(registry.NumSeries(), 0u);
}

TEST(MetricRegistry, ExportTextContainsSeries) {
  MetricRegistry registry;
  registry.GetCounter("requests", {{"core", "0"}}).Inc(3);
  registry.GetGauge("occupancy").Set(0.5);
  const std::string text = registry.ExportText();
  EXPECT_NE(text.find("requests{core=0} 3"), std::string::npos);
  EXPECT_NE(text.find("occupancy 0.5"), std::string::npos);
}

TEST(MetricRegistry, JsonExportRoundTrips) {
  MetricRegistry registry;
  registry.GetCounter("c.one", {{"k", "v"}}).Inc(11);
  registry.GetGauge("g.one").Set(2.25);
  LatencyHistogram& h = registry.GetHistogram("h.one", {}, 0.0, 64.0, 8);
  h.Record(1.0);
  h.Record(33.0);

  auto parsed = json::Value::Parse(registry.ExportJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());

  const json::Value* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->AsArray().size(), 1u);
  const json::Value& c = counters->AsArray()[0];
  EXPECT_EQ(c.Find("name")->AsString(), "c.one");
  EXPECT_EQ(c.Find("labels")->Find("k")->AsString(), "v");
  EXPECT_DOUBLE_EQ(c.Find("value")->AsNumber(), 11.0);

  const json::Value* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->AsArray()[0].Find("value")->AsNumber(), 2.25);

  const json::Value* hists = doc.Find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value& hv = hists->AsArray()[0];
  EXPECT_DOUBLE_EQ(hv.Find("count")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(hv.Find("sum")->AsNumber(), 34.0);
  EXPECT_DOUBLE_EQ(hv.Find("min")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(hv.Find("max")->AsNumber(), 33.0);
  // Two occupied buckets survive the sparse encoding.
  EXPECT_EQ(hv.Find("buckets")->AsArray().size(), 2u);
}

TEST(MetricRegistry, EmptyHistogramExportsNullStats) {
  MetricRegistry registry;
  registry.GetHistogram("h.empty");
  auto parsed = json::Value::Parse(registry.ExportJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value& hv = parsed.value().Find("histograms")->AsArray()[0];
  EXPECT_TRUE(hv.Find("min")->is_null());  // NaN must not leak into JSON
  EXPECT_TRUE(hv.Find("mean")->is_null());
}

TEST(JsonParser, HandlesEscapesAndRejectsGarbage) {
  auto ok = json::Value::Parse(
      "{\"s\":\"a\\\"b\\\\c\\u0041\",\"n\":-1.5e2,\"b\":[true,false,null]}");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().Find("s")->AsString(), "a\"b\\cA");
  EXPECT_DOUBLE_EQ(ok.value().Find("n")->AsNumber(), -150.0);
  EXPECT_EQ(ok.value().Find("b")->AsArray().size(), 3u);
  EXPECT_FALSE(json::Value::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(json::Value::Parse("{\"a\":}").ok());
  EXPECT_FALSE(json::Value::Parse("").ok());
}

// End-to-end: a small two-core replay must publish per-core cache counters,
// per-domain bus histograms, and a trace whose spans never overlap within
// one (pid, tid) lane.
TEST(ReplayObservability, PublishesSeriesAndWellFormedTrace) {
  sim::InstructionTrace t0;
  sim::InstructionTrace t1;
  // Core 0 streams over a large footprint (guaranteed misses); core 1 reuses
  // a small one.
  for (int i = 0; i < 4000; ++i) {
    t0.Record(static_cast<uint64_t>(i) * 4096, sim::AccessType::kRead, 4);
    t1.Record(static_cast<uint64_t>(i % 8) * 64, sim::AccessType::kRead, 4);
  }
  MetricRegistry registry;
  TraceRing trace;
  sim::ReplayObs hooks;
  hooks.metrics = &registry;
  hooks.trace = &trace;
  hooks.labels = {{"config", "test"}};
  std::vector<sim::InstructionTrace> traces;
  traces.push_back(std::move(t0));
  traces.push_back(std::move(t1));
  const auto result = sim::Replay(
      sim::MachineConfig::MarvellLike(2, KiB(64), /*secure=*/false), traces,
      /*warmup_fraction=*/0.25, &hooks);

  // Per-core counters match the replay result.
  for (uint32_t c = 0; c < 2; ++c) {
    const Labels labels = {{"config", "test"}, {"core", std::to_string(c)}};
    const Counter* l1_hits = registry.FindCounter("sim.core.l1.hits", labels);
    const Counter* l2_misses =
        registry.FindCounter("sim.core.l2.misses", labels);
    ASSERT_NE(l1_hits, nullptr);
    ASSERT_NE(l2_misses, nullptr);
    EXPECT_EQ(l1_hits->value(), result.cores[c].L1Hits());
    EXPECT_EQ(l2_misses->value(), result.cores[c].l2_misses);
  }
  // Bus series exist per domain.
  for (uint32_t d = 0; d < 2; ++d) {
    const Labels labels = {{"config", "test"}, {"domain", std::to_string(d)}};
    ASSERT_NE(registry.FindCounter("sim.bus.requests", labels), nullptr);
    ASSERT_NE(registry.FindHistogram("sim.bus.wait_cycles", labels), nullptr);
  }

  // Full-run identities no engine computes directly (the traces are
  // read-only, so every L2 miss is one bus request): each L1 sees all 4000
  // reads, the L2 sees every L1 miss, and the bus every L2 miss — warm-up
  // included, although ReplayResult::l2_stats counts only after it.
  auto count = [&](const char* name, Labels labels) {
    labels.insert(labels.begin(), {"config", "test"});
    const Counter* counter = registry.FindCounter(name, labels);
    EXPECT_NE(counter, nullptr) << name;
    return counter == nullptr ? 0 : counter->value();
  };
  uint64_t l1_misses = 0;
  for (uint32_t c = 0; c < 2; ++c) {
    const Labels l1 = {{"level", "l1"}, {"core", std::to_string(c)}};
    EXPECT_EQ(count("sim.cache.hits", l1) + count("sim.cache.misses", l1),
              4000u);
    l1_misses += count("sim.cache.misses", l1);
  }
  const Labels l2 = {{"level", "l2"}};
  EXPECT_EQ(count("sim.cache.hits", l2) + count("sim.cache.misses", l2),
            l1_misses);
  EXPECT_EQ(count("sim.bus.requests", {{"domain", "0"}}) +
                count("sim.bus.requests", {{"domain", "1"}}),
            count("sim.cache.misses", l2));
  EXPECT_GT(count("sim.cache.misses", l2), result.l2_stats.misses);

  // The converted trace parses and spans are non-overlapping per (pid, tid).
  ASSERT_GT(trace.size(), 0u);
  auto parsed = json::Value::Parse(trace.ToChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::map<std::pair<uint32_t, uint32_t>,
           std::vector<std::pair<uint64_t, uint64_t>>>
      lanes;
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceRecord& e = trace.record(i);
    if (e.kind == TraceRecord::kComplete) {
      lanes[{e.pid, e.tid}].emplace_back(e.ts, e.ts + e.dur);
    }
  }
  ASSERT_FALSE(lanes.empty());
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end());
    for (size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second)
          << "overlap in lane pid=" << lane.first << " tid=" << lane.second;
    }
  }
}

// Lifecycle counters on the NIC-OS management path: both the create and the
// destroy direction publish ok/failure series.
TEST(MgmtObservability, NfDestroyPublishesOkAndFailureCounters) {
  MetricRegistry registry;
  ScopedDefaultRegistry scoped(&registry);
  Rng rng(17);
  crypto::VendorAuthority vendor(512, rng);
  core::SnicConfig config;
  config.num_cores = 8;
  config.dram_bytes = 64ull << 20;
  config.rsa_modulus_bits = 512;
  core::SnicDevice device(config, vendor);
  mgmt::NicOs nic_os(&device);

  mgmt::FunctionImage image;
  image.name = "obs-unit";
  image.code_and_data.assign(512, 0x55);
  image.memory_bytes = 4ull << 20;
  image.switch_rules.push_back(net::SwitchRule{});

  const auto id = nic_os.NfCreate(image);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(registry.GetCounter("mgmt.nf_create.ok").value(), 1u);
  EXPECT_EQ(registry.GetCounter("mgmt.nf_destroy.ok").value(), 0u);

  ASSERT_TRUE(nic_os.NfDestroy(id.value()).ok());
  EXPECT_EQ(registry.GetCounter("mgmt.nf_destroy.ok").value(), 1u);
  EXPECT_EQ(registry.GetCounter("mgmt.nf_destroy.failures").value(), 0u);

  // Tearing down an id that no longer exists is a failed destroy.
  EXPECT_FALSE(nic_os.NfDestroy(id.value()).ok());
  EXPECT_FALSE(nic_os.NfDestroy(9999).ok());
  EXPECT_EQ(registry.GetCounter("mgmt.nf_destroy.ok").value(), 1u);
  EXPECT_EQ(registry.GetCounter("mgmt.nf_destroy.failures").value(), 2u);
}

// A torn-down function's per-NF series leave the registry with it, so a
// device that churns through tenants keeps a bounded registry; a series
// another device's live function also holds stays.
TEST(MgmtObservability, TeardownReleasesPerNfSeries) {
  MetricRegistry registry;
  ScopedDefaultRegistry scoped(&registry);
  Rng rng(18);
  crypto::VendorAuthority vendor(512, rng);
  core::SnicConfig config;
  config.num_cores = 8;
  config.dram_bytes = 64ull << 20;
  config.rsa_modulus_bits = 512;
  core::SnicDevice device(config, vendor);
  core::SnicDevice other(config, vendor);
  mgmt::NicOs nic_os(&device);
  mgmt::NicOs other_os(&other);

  mgmt::FunctionImage image;
  image.name = "churn";
  image.code_and_data.assign(512, 0x55);
  image.memory_bytes = 4ull << 20;
  image.switch_rules.push_back(net::SwitchRule{});

  // Both devices number their first function 1, so the two share its
  // series: tearing one down must leave the other's in place.
  const auto mine = nic_os.NfCreate(image);
  const auto theirs = other_os.NfCreate(image);
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(theirs.ok());
  ASSERT_EQ(mine.value(), theirs.value());
  const obs::Labels shared = {{"nf_id", std::to_string(theirs.value())}};
  ASSERT_TRUE(nic_os.NfDestroy(mine.value()).ok());
  EXPECT_NE(registry.FindCounter("sim.tlb.installs", shared), nullptr);
  ASSERT_TRUE(other_os.NfDestroy(theirs.value()).ok());
  EXPECT_EQ(registry.FindCounter("sim.tlb.installs", shared), nullptr);

  // Churn: every launch adds per-NF series and its teardown takes them
  // away again.
  const size_t settled = registry.NumSeries();
  for (int i = 0; i < 3; ++i) {
    const auto id = nic_os.NfCreate(image);
    ASSERT_TRUE(id.ok());
    EXPECT_GT(registry.NumSeries(), settled);
    ASSERT_TRUE(nic_os.NfDestroy(id.value()).ok());
    EXPECT_EQ(registry.NumSeries(), settled);
  }
}

TEST(GlobalRegistry, IsASingleton) {
  MetricRegistry& a = GlobalRegistry();
  MetricRegistry& b = GlobalRegistry();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace snic::obs
