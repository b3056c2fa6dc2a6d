// Fault-injection plane unit tests: rule windowing, determinism,
// thread-local installation, differential isolation (a rule scoped to one NF
// cannot perturb another NF's stream), and the wired-in injection sites.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/accel/accelerator.h"
#include "src/core/vpp.h"
#include "src/fault/fault.h"
#include "src/obs/metrics.h"
#include "src/obs/span_names.h"
#include "src/obs/trace_ring.h"
#include "src/sim/bus.h"

namespace snic::fault {
namespace {

TEST(FaultPlaneTest, NoPlaneInstalledNothingFires) {
  ASSERT_EQ(CurrentFaultPlane(), nullptr);
  EXPECT_FALSE(SNIC_FAULT_FIRES(sites::kVppRxDrop, 1));
  EXPECT_EQ(SNIC_FAULT_STALL(sites::kBusTimeout, 1), 0u);
}

TEST(FaultPlaneTest, SkipCountWindow) {
  FaultPlane plane;
  FaultRule rule;
  rule.site = "unit.site";
  rule.skip = 2;
  rule.count = 3;
  plane.AddRule(rule);

  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(plane.Fires("unit.site", 0));
  }
  const std::vector<bool> expected = {false, false, true, true,
                                      true,  false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(plane.injected_total(), 3u);
  EXPECT_EQ(plane.InjectedAt("unit.site"), 3u);
}

TEST(FaultPlaneTest, ForeverRuleKeepsFiring) {
  FaultPlane plane;
  FaultRule rule;
  rule.site = "unit.site";
  rule.count = FaultRule::kForever;
  plane.AddRule(rule);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(plane.Fires("unit.site", 0));
  }
}

TEST(FaultPlaneTest, PeriodicWindow) {
  FaultPlane plane;
  FaultRule rule;
  rule.site = "unit.site";
  rule.count = 1;
  rule.period = 4;
  plane.AddRule(rule);

  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(plane.Fires("unit.site", 0));
  }
  const std::vector<bool> expected = {true,  false, false, false, true,
                                      false, false, false, true};
  EXPECT_EQ(fired, expected);
}

TEST(FaultPlaneTest, NfScoping) {
  FaultPlane plane;
  FaultRule rule;
  rule.site = "unit.site";
  rule.nf_id = 7;
  rule.count = FaultRule::kForever;
  plane.AddRule(rule);

  EXPECT_FALSE(plane.Fires("unit.site", 6));
  EXPECT_TRUE(plane.Fires("unit.site", 7));
  EXPECT_FALSE(plane.Fires("other.site", 7));
}

TEST(FaultPlaneTest, StallCyclesSumAcrossFiringRules) {
  FaultPlane plane;
  FaultRule a;
  a.site = "unit.stall";
  a.count = FaultRule::kForever;
  a.stall_cycles = 100;
  plane.AddRule(a);
  FaultRule b = a;
  b.stall_cycles = 25;
  b.skip = 1;  // second hit onward
  plane.AddRule(b);

  EXPECT_EQ(plane.StallCycles("unit.stall", 0), 100u);
  EXPECT_EQ(plane.StallCycles("unit.stall", 0), 125u);
}

TEST(FaultPlaneTest, RetargetRulesFollowsNf) {
  FaultPlane plane;
  FaultRule rule;
  rule.site = "unit.site";
  rule.nf_id = 1;
  rule.skip = 1;
  rule.count = FaultRule::kForever;
  plane.AddRule(rule);

  EXPECT_FALSE(plane.Fires("unit.site", 1));  // skip consumes hit 0
  plane.RetargetRules(1, 9);
  EXPECT_FALSE(plane.Fires("unit.site", 1));  // old id no longer matches
  EXPECT_TRUE(plane.Fires("unit.site", 9));   // counter carried over
}

// The structural isolation property behind the scenario matrix's
// bystander_identical verdict: a rule scoped
// to NF 1 must produce the same decision sequence for NF 1 regardless of how
// many NF-2 hits are interleaved, and must never fire for NF 2.
TEST(FaultPlaneTest, DifferentialIsolationAcrossNfs) {
  auto run = [](int interleave) {
    FaultPlane plane;
    FaultRule rule;
    rule.site = "unit.site";
    rule.nf_id = 1;
    rule.skip = 3;
    rule.count = 2;
    rule.period = 5;
    plane.AddRule(rule);
    std::vector<bool> nf1;
    for (int i = 0; i < 64; ++i) {
      for (int k = 0; k < interleave; ++k) {
        EXPECT_FALSE(plane.Fires("unit.site", 2));
      }
      nf1.push_back(plane.Fires("unit.site", 1));
    }
    return nf1;
  };
  const std::vector<bool> alone = run(0);
  EXPECT_EQ(alone, run(5));
  // Hits 3, 4, 8, 9, 13, ... fire: 2 of every 5 after the 3 skipped.
  EXPECT_EQ(std::count(alone.begin(), alone.end(), true), 25);
  EXPECT_TRUE(alone[3] && alone[4] && !alone[5] && alone[8]);
}

TEST(FaultPlaneTest, ScopedInstallationNests) {
  FaultPlane outer;
  FaultPlane inner;
  ASSERT_EQ(CurrentFaultPlane(), nullptr);
  {
    ScopedFaultPlane s1(&outer);
    EXPECT_EQ(CurrentFaultPlane(), &outer);
    {
      ScopedFaultPlane s2(&inner);
      EXPECT_EQ(CurrentFaultPlane(), &inner);
    }
    EXPECT_EQ(CurrentFaultPlane(), &outer);
  }
  EXPECT_EQ(CurrentFaultPlane(), nullptr);
}

TEST(FaultPlaneTest, PublishesObsCountersAndTraceEvents) {
  obs::MetricRegistry registry;
  obs::TraceRing ring;
  obs::ScopedDefaultRegistry scoped_registry(&registry);
  obs::ScopedTraceRing scoped_ring(&ring);
  FaultPlane plane;
  FaultRule rule;
  rule.site = "unit.site";
  rule.nf_id = 3;
  rule.count = 2;
  plane.AddRule(rule);

  plane.AdvanceClockTo(500);
  plane.Fires("unit.site", 3);
  plane.Fires("unit.site", 3);
  plane.Fires("unit.site", 3);  // window exhausted

  const obs::Counter* injected = registry.FindCounter(
      "fault.injected", {{"site", "unit.site"}, {"nf", "3"}});
  ASSERT_NE(injected, nullptr);
  EXPECT_EQ(injected->value(), 2u);
  // One fault.fired instant per injection, on the faulted NF's lane, whose
  // arg names the rule's site.
  ASSERT_EQ(ring.size(), 2u);
  for (size_t i = 0; i < ring.size(); ++i) {
    const obs::TraceRecord& r = ring.record(i);
    EXPECT_EQ(ring.NameOf(r.name), obs::spans::kFaultFired);
    EXPECT_EQ(r.kind, obs::TraceRecord::kInstant);
    EXPECT_EQ(r.ts, 500u);
    EXPECT_EQ(r.pid, 3u);
    EXPECT_EQ(ring.NameOf(r.arg_name), obs::spans::kArgSite);
    ASSERT_EQ(r.arg_is_name, 1u);
    EXPECT_EQ(ring.NameOf(static_cast<uint16_t>(r.arg)), "unit.site");
  }
}

TEST(FaultPlaneTest, ClockIsMonotonic) {
  FaultPlane plane;
  plane.AdvanceClockTo(100);
  plane.AdvanceClockTo(50);  // never goes backwards
  EXPECT_EQ(plane.now(), 100u);
}

// ---- Wired-in sites -------------------------------------------------------

TEST(FaultSitesTest, AcceleratorThreadAccessFailsTransiently) {
  accel::ClusterConfig config;
  config.type = accel::AcceleratorType::kZip;
  config.total_threads = 8;
  config.threads_per_cluster = 8;
  config.tlb_entries_per_cluster = 4;
  accel::VirtualAcceleratorPool pool({config});
  auto clusters = pool.Allocate(accel::AcceleratorType::kZip, 1, /*nf_id=*/5);
  ASSERT_TRUE(clusters.ok());
  const uint32_t cluster = clusters.value()[0];
  sim::TlbEntry entry;
  entry.virt_base = 0x1000;
  entry.phys_base = 0x2000;
  entry.page_bytes = 0x1000;
  ASSERT_TRUE(pool.ClusterTlb(accel::AcceleratorType::kZip, cluster)
                  .Install(entry)
                  .ok());

  FaultPlane plane;
  FaultRule rule;
  rule.site = std::string(sites::kAccelThreadAccess);
  rule.nf_id = 5;
  rule.count = 1;
  plane.AddRule(rule);
  ScopedFaultPlane scoped(&plane);

  auto first = pool.ThreadAccess(accel::AcceleratorType::kZip, cluster,
                                 0x1000, false);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), ErrorCode::kUnavailable);
  // Transient: the next access goes through.
  EXPECT_TRUE(pool.ThreadAccess(accel::AcceleratorType::kZip, cluster, 0x1000,
                                false)
                  .ok());
}

TEST(FaultSitesTest, VppIngressDropAndCorrupt) {
  core::VppConfig config;
  core::VirtualPacketPipeline vpp(/*nf_id=*/4, config);

  FaultPlane plane;
  FaultRule drop;
  drop.site = std::string(sites::kVppRxDrop);
  drop.nf_id = 4;
  drop.count = 1;
  plane.AddRule(drop);
  FaultRule corrupt;
  corrupt.site = std::string(sites::kVppRxCorrupt);
  corrupt.nf_id = 4;
  corrupt.skip = 1;  // corrupt the second frame that survives the drop rule
  corrupt.count = 1;
  plane.AddRule(corrupt);
  ScopedFaultPlane scoped(&plane);

  net::Packet p1(std::vector<uint8_t>{0x10, 0x20, 0x30});
  Status dropped = vpp.EnqueueRx(p1);
  EXPECT_EQ(dropped.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(vpp.stats().rx_dropped_fault, 1u);
  EXPECT_EQ(vpp.stats().rx_packets, 0u);

  ASSERT_TRUE(vpp.EnqueueRx(p1).ok());  // passes both rules (corrupt skips)
  ASSERT_TRUE(vpp.EnqueueRx(p1).ok());  // corrupted
  EXPECT_EQ(vpp.stats().rx_corrupt_fault, 1u);

  auto intact = vpp.DequeueRx();
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(intact.value().bytes()[0], 0x10);
  auto flipped = vpp.DequeueRx();
  ASSERT_TRUE(flipped.ok());
  // rx_packets was 1 when the corrupt rule fired => byte index 1 flipped.
  EXPECT_EQ(flipped.value().bytes()[1], 0x21);
}

TEST(FaultSitesTest, BusTimeoutStallsOnlyTheTargetDomain) {
  // Two identical FCFS arbiters; one runs under a stall rule for domain 0.
  auto run = [](FaultPlane* plane) {
    sim::FcfsArbiter arbiter(/*transfer_cycles=*/4);
    ScopedFaultPlane scoped(plane);
    std::vector<uint64_t> grants;
    grants.push_back(arbiter.Grant(0, /*domain=*/0));
    grants.push_back(arbiter.Grant(0, /*domain=*/1));
    return grants;
  };

  FaultPlane quiet;
  const auto baseline = run(&quiet);

  FaultPlane stall;
  FaultRule rule;
  rule.site = std::string(sites::kBusTimeout);
  rule.nf_id = 0;  // domain 0
  rule.count = 1;
  rule.stall_cycles = 100;
  stall.AddRule(rule);
  const auto faulted = run(&stall);

  EXPECT_EQ(baseline[0] + 100, faulted[0]);
  // Domain 1's grant moves only through the FCFS queue (shared bus), which
  // is the modeled behaviour — but the injected stall itself applied to
  // domain 0 alone.
  EXPECT_EQ(stall.InjectedAt(sites::kBusTimeout), 1u);
}

TEST(FaultSitesTest, TemporalPartitionStallDoesNotShiftOtherDomain) {
  auto run = [](FaultPlane* plane) {
    sim::TemporalPartitionArbiter::Config config;
    config.transfer_cycles = 4;
    config.num_domains = 2;
    config.epoch_cycles = 64;
    config.dead_time_cycles = 8;
    sim::TemporalPartitionArbiter arbiter(config);
    ScopedFaultPlane scoped(plane);
    std::vector<uint64_t> grants;
    for (int i = 0; i < 4; ++i) {
      grants.push_back(arbiter.Grant(static_cast<uint64_t>(i) * 8,
                                     /*domain=*/0));
      grants.push_back(arbiter.Grant(static_cast<uint64_t>(i) * 8,
                                     /*domain=*/1));
    }
    return grants;
  };

  const auto baseline = run(nullptr);

  FaultPlane stall;
  FaultRule rule;
  rule.site = std::string(sites::kBusTimeout);
  rule.nf_id = 0;
  rule.count = FaultRule::kForever;
  rule.stall_cycles = 32;
  stall.AddRule(rule);
  const auto faulted = run(&stall);

  ASSERT_EQ(baseline.size(), faulted.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    if (i % 2 == 1) {
      // Domain 1 grants: byte-identical with and without domain-0 stalls —
      // the temporal partition's non-interference extends to injected
      // faults.
      EXPECT_EQ(baseline[i], faulted[i]) << "grant " << i;
    }
  }
  EXPECT_GT(stall.InjectedAt(sites::kBusTimeout), 0u);
}

}  // namespace
}  // namespace snic::fault
