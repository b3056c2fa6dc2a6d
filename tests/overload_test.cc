// Tests for the deterministic overload-control plane (docs/ROBUSTNESS.md,
// "Overload control"): token-bucket admission over simulated cycles,
// bounded queues under both drop policies, per-packet cycle deadlines, the
// accelerator circuit breaker (including injected half-open probe
// failures), and chain credit backpressure.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>

#include "src/core/chaining.h"
#include "src/core/overload.h"
#include "src/core/vpp.h"
#include "src/fault/fault.h"
#include "src/mgmt/nic_os.h"
#include "src/net/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/span_names.h"
#include "src/obs/trace_ring.h"

namespace snic {
namespace {

net::Packet PacketWithPort(uint16_t dst_port, size_t frame_len = 0) {
  net::FiveTuple t;
  t.src_ip = net::Ipv4FromString("10.0.0.1");
  t.dst_ip = net::Ipv4FromString("10.0.0.2");
  t.src_port = 1000;
  t.dst_port = dst_port;
  t.protocol = 6;
  net::PacketBuilder b;
  b.SetTuple(t);
  if (frame_len != 0) {
    b.SetFrameLen(frame_len);
  }
  return b.Build();
}

core::VppConfig ConfigForPort(uint16_t port) {
  core::VppConfig config;
  net::SwitchRule rule;
  rule.dst_port = port;
  config.rules.push_back(rule);
  return config;
}

// ---- TokenBucket ------------------------------------------------------------

TEST(TokenBucketTest, DisabledBucketAdmitsEverything) {
  core::TokenBucket bucket;  // refill 0 => disabled
  EXPECT_FALSE(bucket.enabled());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bucket.TryConsume());
  }
  EXPECT_TRUE(bucket.HasToken());
}

TEST(TokenBucketTest, StartsFullAndRefusesWhenDrained) {
  core::TokenBucket bucket(3, 1, 100);
  EXPECT_TRUE(bucket.enabled());
  EXPECT_TRUE(bucket.TryConsume());
  EXPECT_TRUE(bucket.TryConsume());
  EXPECT_TRUE(bucket.TryConsume());
  EXPECT_FALSE(bucket.TryConsume());
  EXPECT_FALSE(bucket.HasToken());
}

TEST(TokenBucketTest, RefillsWholePeriodsOnly) {
  core::TokenBucket bucket(10, 1, 100);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bucket.TryConsume());
  }
  bucket.AdvanceTo(99);  // no whole period elapsed
  EXPECT_EQ(bucket.tokens(), 0u);
  bucket.AdvanceTo(100);
  EXPECT_EQ(bucket.tokens(), 1u);
  bucket.AdvanceTo(250);  // one more whole period (100 -> 200)
  EXPECT_EQ(bucket.tokens(), 2u);
  bucket.AdvanceTo(300);  // the 50-cycle remainder was not lost
  EXPECT_EQ(bucket.tokens(), 3u);
}

// The determinism contract: two buckets fed the same clock through
// different advance batching (the --jobs analogue) agree bit for bit.
TEST(TokenBucketTest, RefillIsBatchingIndependent) {
  core::TokenBucket fine(4, 2, 100);
  core::TokenBucket coarse(4, 2, 100);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fine.TryConsume());
    ASSERT_TRUE(coarse.TryConsume());
  }
  for (uint64_t cycle = 0; cycle <= 1000; cycle += 7) {
    fine.AdvanceTo(cycle);
  }
  fine.AdvanceTo(1000);
  coarse.AdvanceTo(1000);
  EXPECT_EQ(fine.tokens(), coarse.tokens());
  EXPECT_EQ(fine.tokens(), 4u);  // clamped at burst
}

TEST(TokenBucketTest, StaleClockIsIgnored) {
  core::TokenBucket bucket(5, 1, 10);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(bucket.TryConsume());
  }
  bucket.AdvanceTo(20);
  EXPECT_EQ(bucket.tokens(), 2u);
  bucket.AdvanceTo(5);  // going backwards must not mint tokens
  EXPECT_EQ(bucket.tokens(), 2u);
}

// ---- VPP admission and drop policies ---------------------------------------

TEST(VppOverloadTest, AdmissionBucketGatesIngress) {
  core::VppConfig config = ConfigForPort(80);
  config.overload.admission_burst_frames = 2;
  config.overload.admission_frames_per_refill = 1;
  config.overload.admission_refill_cycles = 100;
  core::VirtualPacketPipeline vpp(1, config);
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 64)).ok());
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 64)).ok());
  const Status rejected = vpp.EnqueueRx(PacketWithPort(80, 64));
  EXPECT_EQ(rejected.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(vpp.stats().rx_dropped_admission, 1u);
  EXPECT_FALSE(vpp.CanAdmitRx(64));
  vpp.AdvanceClockTo(100);  // one refill period -> one token
  EXPECT_TRUE(vpp.CanAdmitRx(64));
  EXPECT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 64)).ok());
  EXPECT_EQ(vpp.stats().rx_packets, 3u);
}

TEST(VppOverloadTest, FrameCapacityTailDrop) {
  core::VppConfig config = ConfigForPort(80);
  config.overload.rx_queue_capacity_frames = 2;
  core::VirtualPacketPipeline vpp(1, config);
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 128)).ok());
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 512)).ok());
  EXPECT_EQ(vpp.EnqueueRx(PacketWithPort(80, 64)).code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(vpp.stats().rx_dropped_full, 1u);
  // Tail drop never reorders what was admitted.
  EXPECT_EQ(vpp.DequeueRx().value().size(), 128u);
  EXPECT_EQ(vpp.DequeueRx().value().size(), 512u);
}

TEST(VppOverloadTest, EarlyDropEvictsLargestAndPreservesOrder) {
  core::VppConfig config = ConfigForPort(80);
  config.overload.rx_queue_capacity_frames = 3;
  config.overload.drop_policy = core::DropPolicy::kPriorityEarlyDrop;
  core::VirtualPacketPipeline vpp(1, config);
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 128)).ok());
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 1514)).ok());
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 256)).ok());
  // The queue is full; a smaller incoming frame evicts the largest queued
  // one (the 1514) and is admitted.
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 64)).ok());
  EXPECT_EQ(vpp.stats().rx_dropped_early, 1u);
  // Survivors dequeue in their original arrival order.
  EXPECT_EQ(vpp.DequeueRx().value().size(), 128u);
  EXPECT_EQ(vpp.DequeueRx().value().size(), 256u);
  EXPECT_EQ(vpp.DequeueRx().value().size(), 64u);
}

TEST(VppOverloadTest, EarlyDropNeverEvictsForLowerPriorityFrame) {
  core::VppConfig config = ConfigForPort(80);
  config.overload.rx_queue_capacity_frames = 2;
  config.overload.drop_policy = core::DropPolicy::kPriorityEarlyDrop;
  core::VirtualPacketPipeline vpp(1, config);
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 128)).ok());
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 256)).ok());
  // A larger (lower-priority) frame finds no eligible victim: rejected.
  EXPECT_EQ(vpp.EnqueueRx(PacketWithPort(80, 1514)).code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(vpp.stats().rx_dropped_early, 0u);
  EXPECT_EQ(vpp.stats().rx_dropped_full, 1u);
  EXPECT_EQ(vpp.RxQueuedFrames(), 2u);
}

TEST(VppOverloadTest, DeadlineShedsStaleRxFrames) {
  core::VppConfig config = ConfigForPort(80);
  config.overload.deadline_cycles = 100;
  core::VirtualPacketPipeline vpp(1, config);
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 200)).ok());  // stamped at 0
  vpp.AdvanceClockTo(150);
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 300)).ok());  // stamped at 150
  vpp.AdvanceClockTo(180);
  // The first frame is 180 cycles old (> 100): shed at the stage boundary;
  // the second is fresh and delivered.
  const auto delivered = vpp.DequeueRx();
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(delivered.value().size(), 300u);
  EXPECT_EQ(vpp.stats().rx_shed_deadline, 1u);
  EXPECT_EQ(vpp.stats().shed_bytes, 200u);
  EXPECT_FALSE(vpp.RxPending());
}

TEST(VppOverloadTest, DeadlineShedsStaleTxAtPeek) {
  core::VppConfig config = ConfigForPort(80);
  config.overload.deadline_cycles = 100;
  core::VirtualPacketPipeline vpp(1, config);
  ASSERT_TRUE(vpp.EnqueueTx(PacketWithPort(80, 400)).ok());
  vpp.AdvanceClockTo(50);
  EXPECT_NE(vpp.PeekTx(), nullptr);  // still fresh
  vpp.AdvanceClockTo(200);
  EXPECT_EQ(vpp.PeekTx(), nullptr);  // stale: shed, counted
  EXPECT_EQ(vpp.stats().tx_shed_deadline, 1u);
  EXPECT_EQ(vpp.stats().shed_bytes, 400u);
  EXPECT_FALSE(vpp.DequeueTx().ok());
}

TEST(VppOverloadTest, PeakStatsTrackHighWaterMarks) {
  core::VirtualPacketPipeline vpp(1, ConfigForPort(80));
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 100)).ok());
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 200)).ok());
  ASSERT_TRUE(vpp.DequeueRx().ok());
  ASSERT_TRUE(vpp.EnqueueRx(PacketWithPort(80, 64)).ok());
  EXPECT_EQ(vpp.stats().rx_peak_frames, 2u);
  EXPECT_EQ(vpp.stats().rx_peak_bytes, 300u);
  EXPECT_EQ(vpp.RxQueuedFrames(), 2u);
  EXPECT_EQ(vpp.RxQueuedBytes(), 264u);
}

// ---- CircuitBreaker ---------------------------------------------------------

core::CircuitBreakerConfig BreakerConfig() {
  core::CircuitBreakerConfig config;
  config.failures_to_open = 2;
  config.open_cycles = 100;
  config.half_open_successes = 2;
  return config;
}

TEST(CircuitBreakerTest, FullClosedOpenHalfOpenClosedCycle) {
  core::CircuitBreaker breaker(7, BreakerConfig());
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(0));
  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
  breaker.RecordFailure(1);
  EXPECT_EQ(breaker.state(), core::BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().opens, 1u);
  // Open dwell: requests rejected without touching the resource.
  EXPECT_FALSE(breaker.AllowRequest(50));
  EXPECT_EQ(breaker.stats().rejected, 1u);
  // Dwell elapsed: half-open, probes admitted one at a time.
  EXPECT_TRUE(breaker.AllowRequest(150));
  EXPECT_EQ(breaker.state(), core::BreakerState::kHalfOpen);
  breaker.RecordSuccess(150);
  EXPECT_EQ(breaker.state(), core::BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest(160));
  breaker.RecordSuccess(160);
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().closes, 1u);
  EXPECT_EQ(breaker.stats().probes, 2u);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopens) {
  core::CircuitBreaker breaker(7, BreakerConfig());
  breaker.RecordFailure(0);
  breaker.RecordFailure(1);
  ASSERT_EQ(breaker.state(), core::BreakerState::kOpen);
  EXPECT_TRUE(breaker.AllowRequest(150));
  breaker.RecordFailure(150);
  EXPECT_EQ(breaker.state(), core::BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().reopens, 1u);
  // The reopen restarts the dwell from the failure cycle.
  EXPECT_FALSE(breaker.AllowRequest(200));
  EXPECT_TRUE(breaker.AllowRequest(300));
}

TEST(CircuitBreakerTest, InjectedProbeFaultReopensWithoutDispatch) {
  fault::FaultPlane plane;
  fault::FaultRule rule;
  rule.site = std::string(fault::sites::kBreakerProbe);
  rule.nf_id = 7;
  rule.count = 1;
  plane.AddRule(rule);
  fault::ScopedFaultPlane scoped(&plane);

  core::CircuitBreaker breaker(7, BreakerConfig());
  breaker.RecordFailure(0);
  breaker.RecordFailure(1);
  ASSERT_EQ(breaker.state(), core::BreakerState::kOpen);
  // The probe itself fails by injection: the caller never gets to dispatch.
  EXPECT_FALSE(breaker.AllowRequest(150));
  EXPECT_EQ(breaker.state(), core::BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().probe_failures, 1u);
  EXPECT_EQ(breaker.stats().reopens, 1u);
  EXPECT_EQ(plane.injected_total(), 1u);
  // Rule exhausted: the next probe goes through and can close the breaker.
  EXPECT_TRUE(breaker.AllowRequest(300));
  breaker.RecordSuccess(300);
  EXPECT_TRUE(breaker.AllowRequest(310));
  breaker.RecordSuccess(310);
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailureStreak) {
  core::CircuitBreaker breaker(7, BreakerConfig());
  breaker.RecordFailure(0);
  breaker.RecordSuccess(1);  // streak broken
  breaker.RecordFailure(2);
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
  breaker.RecordFailure(3);
  EXPECT_EQ(breaker.state(), core::BreakerState::kOpen);
}

// ---- Device-level fixtures --------------------------------------------------

class OverloadDeviceTest : public ::testing::Test {
 protected:
  OverloadDeviceTest()
      : rng_(91), vendor_(512, rng_), device_(Config(), vendor_),
        nic_os_(&device_) {}

  static core::SnicConfig Config() {
    core::SnicConfig config;
    config.num_cores = 8;
    config.dram_bytes = 64ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  uint64_t Launch(const char* name, uint16_t port,
                  const core::OverloadPolicy& overload = {},
                  uint32_t zip_clusters = 0) {
    mgmt::FunctionImage image;
    image.name = name;
    image.code_and_data.assign(1024, 0x33);
    image.memory_bytes = 4ull << 20;
    image.overload = overload;
    image.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kZip)] =
        zip_clusters;
    net::SwitchRule rule;
    rule.dst_port = port;
    image.switch_rules.push_back(rule);
    const auto id = nic_os_.NfCreate(image);
    SNIC_CHECK(id.ok());
    return id.value();
  }

  static net::Packet PacketTo(uint16_t port) { return PacketWithPort(port); }

  Rng rng_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  mgmt::NicOs nic_os_;
};

// ---- AccelDispatchGate ------------------------------------------------------

// The gate and its breaker bind their sinks at construction, so under a
// registry and ring scope the trip and the recovery also land as the
// breaker-state gauge and as dispatch, fallback and breaker instants on the
// gated NF's own lane.
TEST_F(OverloadDeviceTest, GateTripsOnAccelFaultsAndRecovers) {
  const uint64_t nf = Launch("gated", 1000, {}, /*zip_clusters=*/1);
  const auto zip = accel::AcceleratorType::kZip;
  int cluster = -1;
  for (uint32_t i = 0; i < device_.accel_pool().NumClusters(zip); ++i) {
    if (device_.accel_pool().Owner(zip, i) == std::optional<uint64_t>(nf)) {
      cluster = static_cast<int>(i);
    }
  }
  ASSERT_GE(cluster, 0);

  obs::MetricRegistry registry;
  obs::TraceRing ring;
  obs::ScopedDefaultRegistry scoped_registry(&registry);
  obs::ScopedTraceRing scoped_ring(&ring);
  fault::FaultPlane plane;
  fault::FaultRule rule;
  rule.site = std::string(fault::sites::kAccelThreadAccess);
  rule.nf_id = nf;
  rule.count = 2;  // exactly enough transient faults to trip the breaker
  plane.AddRule(rule);
  fault::ScopedFaultPlane scoped(&plane);

  core::AccelDispatchGate gate(&device_.accel_pool(), nf, BreakerConfig());
  const obs::Gauge* state = registry.FindGauge(
      "accel.breaker_state", {{"nf", std::to_string(nf)}});
  ASSERT_NE(state, nullptr);
  EXPECT_FALSE(
      gate.Dispatch(zip, static_cast<uint32_t>(cluster), 0x1000, false, 0)
          .ok());
  EXPECT_FALSE(
      gate.Dispatch(zip, static_cast<uint32_t>(cluster), 0x1000, false, 1)
          .ok());
  EXPECT_EQ(gate.breaker().state(), core::BreakerState::kOpen);
  EXPECT_EQ(state->value(), 1.0);  // kOpen's ordinal
  // While open, dispatch is refused immediately: the software-path cue.
  const auto refused =
      gate.Dispatch(zip, static_cast<uint32_t>(cluster), 0x1000, false, 50);
  EXPECT_EQ(refused.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(gate.stats().software_fallbacks, 1u);
  EXPECT_EQ(gate.stats().dispatches, 2u);  // the refusal never dispatched
  // Past the dwell the half-open probes succeed (fault rule exhausted) and
  // the breaker closes.
  EXPECT_TRUE(
      gate.Dispatch(zip, static_cast<uint32_t>(cluster), 0x1000, false, 150)
          .ok());
  EXPECT_TRUE(
      gate.Dispatch(zip, static_cast<uint32_t>(cluster), 0x1000, false, 160)
          .ok());
  EXPECT_EQ(gate.breaker().state(), core::BreakerState::kClosed);
  EXPECT_EQ(state->value(), 0.0);

  // Four dispatches, one fallback, and closed->open->half-open->closed.
  std::map<std::string_view, size_t> instants;
  for (size_t i = 0; i < ring.size(); ++i) {
    const obs::TraceRecord& r = ring.record(i);
    EXPECT_EQ(r.pid, nf);
    ++instants[ring.NameOf(r.name)];
  }
  EXPECT_EQ(instants[obs::spans::kAccelDispatch], 4u);
  EXPECT_EQ(instants[obs::spans::kAccelFallback], 1u);
  EXPECT_EQ(instants[obs::spans::kAccelBreaker], 3u);
}

// ---- Chain credit backpressure ----------------------------------------------

TEST_F(OverloadDeviceTest, CreditFlowStallsInsteadOfDropping) {
  const uint64_t producer = Launch("p", 1000);
  core::OverloadPolicy tight;
  tight.rx_queue_capacity_frames = 2;
  const uint64_t consumer = Launch("c", 2000, tight);
  core::ChainManager chains(&device_);
  const auto link = chains.CreateLink({producer, consumer, 4});
  ASSERT_TRUE(link.ok());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(device_.NfSend(producer, PacketTo(1000)).ok());
  }
  chains.TickAll();  // credits for 4, but the consumer admits only 2
  const core::ChainLinkStats& stats = chains.link(link.value()).stats();
  EXPECT_EQ(stats.frames_moved, 2u);
  EXPECT_EQ(stats.frames_stalled, 1u);
  EXPECT_EQ(stats.stall_ticks, 1u);
  // The stalled frames leave only through the link: the wire must not
  // drain them past the consumer.
  EXPECT_FALSE(device_.TransmitToWire().ok());

  // Drain the consumer and keep ticking: every frame arrives eventually.
  int received = 0;
  for (int round = 0; round < 4; ++round) {
    while (device_.NfReceive(consumer).ok()) {
      ++received;
    }
    chains.TickAll();
  }
  while (device_.NfReceive(consumer).ok()) {
    ++received;
  }
  EXPECT_EQ(received, 5);
  EXPECT_EQ(stats.frames_moved, 5u);
  // The first drain tick still stalled one frame; every later tick ended
  // with the producer's TX empty.
  EXPECT_EQ(stats.stall_ticks, 2u);

  // With its last link gone the producer drains to the wire again.
  ASSERT_TRUE(device_.NfSend(producer, PacketTo(1000)).ok());
  EXPECT_FALSE(device_.TransmitToWire().ok());
  chains.RemoveLinksFor(consumer);
  EXPECT_TRUE(device_.TransmitToWire().ok());
}

TEST_F(OverloadDeviceTest, CreditGrantFaultStallsOneTick) {
  const uint64_t producer = Launch("p", 1000);
  const uint64_t consumer = Launch("c", 2000);
  core::ChainManager chains(&device_);
  const auto link = chains.CreateLink({producer, consumer, 4});
  ASSERT_TRUE(link.ok());

  fault::FaultPlane plane;
  fault::FaultRule rule;
  rule.site = std::string(fault::sites::kChainCreditGrant);
  rule.nf_id = consumer;
  rule.count = 1;
  plane.AddRule(rule);
  fault::ScopedFaultPlane scoped(&plane);

  ASSERT_TRUE(device_.NfSend(producer, PacketTo(1000)).ok());
  chains.TickAll();  // the injected grant failure withholds all credits
  const core::ChainLinkStats& stats = chains.link(link.value()).stats();
  EXPECT_EQ(stats.frames_moved, 0u);
  EXPECT_EQ(stats.credit_faults, 1u);
  EXPECT_EQ(stats.stall_ticks, 1u);
  EXPECT_FALSE(device_.NfReceive(consumer).ok());
  chains.TickAll();  // rule exhausted: the frame moves, nothing was lost
  EXPECT_EQ(stats.frames_moved, 1u);
  EXPECT_TRUE(device_.NfReceive(consumer).ok());
}

// ---- Attestable policy ------------------------------------------------------

TEST(FunctionImageOverloadTest, OverloadPolicyIsCoveredByConfigBlob) {
  mgmt::FunctionImage base;
  base.name = "measured";
  base.code_and_data.assign(128, 0x55);
  mgmt::FunctionImage tweaked = base;
  tweaked.overload.deadline_cycles = 500;
  // A different admission contract must change the measured blob (and so
  // the launch measurement attestation signs).
  EXPECT_NE(base.SerializeConfig(), tweaked.SerializeConfig());
}

}  // namespace
}  // namespace snic
