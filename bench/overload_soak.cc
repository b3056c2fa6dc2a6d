// Overload soak: graceful degradation as a differential invariant.
//
// Sweeps one constellation across offered-load factors (0.25x .. 4x of the
// overloaded NF's service capacity). NF O sits behind the full overload
// plane — ingress token bucket, bounded priority-early-drop RX queue,
// per-frame cycle deadlines, an accelerator circuit breaker, and a
// credit-flow chain into a slower downstream NF D whose backpressure feeds
// the autoscaler. Bystander NF B shares the device the whole time. Three
// invariants, checked at every --jobs count:
//
//   1. B's full observable record (packet digests, VPP stats, bus grants,
//      metrics, trace-ring lane) is BYTE-IDENTICAL across every load
//      factor: overload of one tenant is invisible to another.
//   2. O's queue occupancy stays under its configured hard bound even at
//      4x load (bounded queues actually bound).
//   3. The goodput-vs-offered-load curve never collapses: each point stays
//      within tolerance of the running maximum (shed load, don't thrash).
//
// Flags: --quick --jobs=N --seed=S --out=FILE (JSON verdict + curve)
// Exit status 1 when any invariant is violated.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/soak_common.h"
#include "src/accel/accelerator.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/chaining.h"
#include "src/core/overload.h"
#include "src/crypto/keys.h"
#include "src/fault/fault.h"
#include "src/mgmt/autoscaler.h"
#include "src/mgmt/nic_os.h"
#include "src/net/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"
#include "src/sim/bus.h"

namespace snic {
namespace {

constexpr uint16_t kPortO = 1000;  // the overloaded tenant
constexpr uint16_t kPortD = 1500;  // chain consumer (never on the wire)
constexpr uint16_t kPortB = 2000;  // the bystander
constexpr uint64_t kCyclesPerStep = 100;
// O's service budget per step; load factors are multiples of this.
constexpr uint64_t kServicePerStep = 4;
// D deliberately consumes slower than O produces: the chain is the
// bottleneck whose credit stalls exercise backpressure end to end.
constexpr uint64_t kDownstreamPerStep = 3;
// O's overload policy (the bound invariant #2 asserts against).
constexpr uint64_t kRxCapFrames = 24;
// Frame geometry: 54-byte headers + the largest payload the traffic
// generator draws (32 + 3*64). Gives the byte form of the queue bound.
constexpr uint64_t kMaxFrameBytes = 54 + 32 + 3 * 64;

// Offered-load factors in percent of kServicePerStep (integer arithmetic
// keeps the offered-frame schedule exactly reproducible).
constexpr uint64_t kLoadPct[] = {25, 50, 100, 200, 300, 400};
constexpr size_t kNumLoads = sizeof(kLoadPct) / sizeof(kLoadPct[0]);

using bench::AppendF;
using bench::Fnv;

struct ScenarioResult {
  std::string b_report;  // invariant #1: identical across load factors
  std::string summary;   // printed narrative
  uint64_t load_pct = 0;
  uint64_t offered = 0;          // frames aimed at O
  uint64_t goodput = 0;          // frames that reached D (end of chain)
  uint64_t wire_rejected = 0;    // refused at O's ingress (bucket/queue)
  uint64_t o_tx_rejected = 0;    // refused at O's bounded TX (backpressure)
  core::VppStats o_stats;
  core::ChainLinkStats chain_stats;
  core::CircuitBreakerStats breaker_stats;
  core::AccelDispatchGateStats gate_stats;
  uint64_t accel_frames = 0;     // frames that used the accelerator
  uint64_t software_frames = 0;  // frames served on the software path
  mgmt::AutoscalerStats scaler_stats;
  uint64_t final_instances = 0;
  uint64_t faults_injected = 0;
};

mgmt::FunctionImage MakeImage(const std::string& name, uint16_t port,
                              uint32_t zip_clusters,
                              const core::OverloadPolicy& overload = {}) {
  mgmt::FunctionImage image;
  image.name = name;
  image.code_and_data.assign(3000, 0xd0);
  image.cores = 1;
  image.memory_bytes = 8ull << 20;
  image.overload = overload;
  image.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kZip)] =
      zip_clusters;
  net::SwitchRule rule;
  rule.dst_port = port;
  image.switch_rules.push_back(rule);
  return image;
}

// The O-scoped fault schedule, identical in every scenario: three
// consecutive accelerator faults trip the breaker, the first half-open
// probe is forced to fail (one reopen), periodic injected admission
// rejects and credit-grant failures keep those shed paths warm.
void InstallFaultSchedule(fault::FaultPlane& plane, uint64_t o_id,
                          uint64_t d_id) {
  auto add = [&plane](std::string_view site, uint64_t nf, uint64_t skip,
                      uint64_t count, uint64_t period) {
    fault::FaultRule rule;
    rule.site = std::string(site);
    rule.nf_id = nf;
    rule.skip = skip;
    rule.count = count;
    rule.period = period;
    plane.AddRule(rule);
  };
  add(fault::sites::kAccelThreadAccess, o_id, 150, 3, 0);
  add(fault::sites::kBreakerProbe, o_id, 0, 1, 0);
  add(fault::sites::kVppRxAdmissionReject, o_id, 30, 1, 151);
  add(fault::sites::kChainCreditGrant, d_id, 5, 1, 97);
}

ScenarioResult RunScenario(size_t load_index, uint64_t seed, uint64_t steps) {
  ScenarioResult result;
  result.load_pct = kLoadPct[load_index];
  obs::MetricRegistry registry;
  obs::ScopedDefaultRegistry scoped_registry(&registry);
  obs::TraceRing ring;

  fault::FaultPlane plane(runtime::DeriveTaskSeed(seed, 1));
  plane.AttachObs(&registry);
  fault::ScopedFaultPlane scoped_plane(&plane);

  // Identical key material and device in every scenario; only the volume
  // of traffic aimed at O differs.
  Rng vendor_rng(runtime::DeriveTaskSeed(seed, 2));
  crypto::VendorAuthority vendor(512, vendor_rng);
  core::SnicConfig config;
  config.num_cores = 8;
  config.dram_bytes = 256ull << 20;
  config.rsa_modulus_bits = 512;
  core::SnicDevice device(config, vendor);
  device.AttachTraceRing(&ring);
  mgmt::NicOs nic_os(&device);

  // O: the tenant under test, fully fenced by the overload plane.
  core::OverloadPolicy o_policy;
  o_policy.rx_queue_capacity_frames = kRxCapFrames;
  o_policy.tx_queue_capacity_frames = 32;
  o_policy.drop_policy = core::DropPolicy::kPriorityEarlyDrop;
  o_policy.admission_burst_frames = 24;
  o_policy.admission_frames_per_refill = 6;
  o_policy.admission_refill_cycles = 50;  // 12 tokens per step
  o_policy.deadline_cycles = 150;
  // D: the slower downstream stage; its small RX bound is what turns
  // sustained overload into credit stalls on the chain.
  core::OverloadPolicy d_policy;
  d_policy.rx_queue_capacity_frames = 8;

  const auto launch = [&nic_os](const mgmt::FunctionImage& image) {
    const auto id = nic_os.NfCreate(image);
    SNIC_CHECK(id.ok());
    return id.value();
  };
  const uint64_t o_id =
      launch(MakeImage("overloaded-o", kPortO, /*zip_clusters=*/1, o_policy));
  const uint64_t d_id = launch(MakeImage("downstream-d", kPortD, 0, d_policy));
  const uint64_t b_id = launch(MakeImage("bystander-b", kPortB, 0));

  InstallFaultSchedule(plane, o_id, d_id);

  core::ChainManager chains(&device);
  core::ChainLinkConfig link_config;
  link_config.producer_nf = o_id;
  link_config.consumer_nf = d_id;
  link_config.frames_per_tick = 6;
  link_config.flow_control = core::ChainFlowControl::kCredit;
  const auto link = chains.CreateLink(link_config);
  SNIC_CHECK(link.ok());

  const auto zip = accel::AcceleratorType::kZip;
  int o_cluster = -1;
  for (uint32_t i = 0; i < device.accel_pool().NumClusters(zip); ++i) {
    if (device.accel_pool().Owner(zip, i) == std::optional<uint64_t>(o_id)) {
      o_cluster = static_cast<int>(i);
    }
  }
  SNIC_CHECK(o_cluster >= 0);
  core::CircuitBreakerConfig breaker_config;
  breaker_config.failures_to_open = 3;
  breaker_config.open_cycles = 10 * kCyclesPerStep;
  breaker_config.half_open_successes = 2;
  core::AccelDispatchGate gate(&device.accel_pool(), o_id, breaker_config);
  gate.breaker().AttachObs(&registry);

  // The elastic pool the pressure signal scales: capacity is set so high
  // that only sustained backpressure (never the load estimate) scales it.
  mgmt::AutoscalerConfig scaler_config;
  scaler_config.image = MakeImage("elastic", 4000, 0);
  scaler_config.image.memory_bytes = 4ull << 20;
  scaler_config.capacity_per_instance = 100.0;
  scaler_config.min_instances = 1;
  scaler_config.max_instances = 4;
  scaler_config.pressure_scale_up_after = 3;
  mgmt::Autoscaler scaler(&nic_os, scaler_config);

  sim::TemporalPartitionArbiter::Config bus_config;
  bus_config.transfer_cycles = 4;
  bus_config.num_domains = 2;  // domain 0 = O, domain 1 = B
  bus_config.epoch_cycles = 64;
  bus_config.dead_time_cycles = 8;
  sim::TemporalPartitionArbiter bus(bus_config);

  // Two traffic streams from disjoint seed lanes: O's volume varies with
  // the load factor, B's is the scenario-invariant control.
  Rng o_traffic(runtime::DeriveTaskSeed(seed, 4));
  Rng b_traffic(runtime::DeriveTaskSeed(seed, 5));
  obs::Counter& b_rx = registry.GetCounter("overload.b.rx", {{"nf", "b"}});
  obs::Counter& b_tx = registry.GetCounter("overload.b.tx", {{"nf", "b"}});

  core::VirtualPacketPipeline* o_vpp = device.Vpp(o_id);
  core::VirtualPacketPipeline* b_vpp = device.Vpp(b_id);
  core::VirtualPacketPipeline* d_vpp = device.Vpp(d_id);
  SNIC_CHECK(o_vpp != nullptr && b_vpp != nullptr && d_vpp != nullptr);

  const auto make_packet = [](Rng& rng, uint16_t port) {
    net::FiveTuple tuple;
    tuple.src_ip = net::Ipv4FromString("10.0.0.9");
    tuple.dst_ip = net::Ipv4FromString("203.0.113.7");
    tuple.src_port = static_cast<uint16_t>(10000 + rng.NextBounded(100));
    tuple.dst_port = port;
    tuple.protocol = 6;
    // Mixed frame sizes so priority-aware early drop has real choices.
    std::vector<uint8_t> payload(32 + rng.NextBounded(4) * 64);
    for (size_t k = 0; k < payload.size(); ++k) {
      payload[k] = static_cast<uint8_t>(rng.NextU64());
    }
    return net::PacketBuilder().SetTuple(tuple).SetPayload(payload).Build();
  };

  Fnv b_rx_digest, b_wire_digest, b_bus_digest;
  uint64_t b_wire_packets = 0, b_bus_grants = 0;
  uint64_t offered_acc = 0;

  for (uint64_t step = 0; step < steps; ++step) {
    const uint64_t now = (step + 1) * kCyclesPerStep;
    plane.AdvanceClockTo(now);
    device.AdvanceClockTo(now);

    // Offered load toward O: load_pct% of the service budget, scheduled by
    // an integer accumulator so fractional factors stay deterministic.
    offered_acc += result.load_pct * kServicePerStep;
    while (offered_acc >= 100) {
      offered_acc -= 100;
      ++result.offered;
      if (!device.DeliverFromWire(make_packet(o_traffic, kPortO)).ok()) {
        ++result.wire_rejected;  // token bucket, injected reject, or full
      }
    }
    // B's control stream: two frames per step, every scenario.
    for (int i = 0; i < 2; ++i) {
      SNIC_CHECK_OK(device.DeliverFromWire(make_packet(b_traffic, kPortB)));
    }

    // One bus grant per domain per step; B's grants join its record.
    (void)bus.Grant(now, /*domain=*/0);
    b_bus_digest.Mix64(bus.Grant(now, /*domain=*/1));
    ++b_bus_grants;

    // O services its budget. Every frame consults the breaker-gated
    // accelerator; an open breaker answers immediately and the frame takes
    // the software path — degraded, never dropped.
    for (uint64_t n = 0; n < kServicePerStep; ++n) {
      auto received = device.NfReceive(o_id);  // sheds stale frames first
      if (!received.ok()) {
        break;
      }
      const auto access = gate.Dispatch(
          zip, static_cast<uint32_t>(o_cluster), 0x1000, false, now);
      if (access.ok()) {
        ++result.accel_frames;
      } else {
        ++result.software_frames;
      }
      if (!device.NfSend(o_id, std::move(received).value()).ok()) {
        ++result.o_tx_rejected;  // bounded TX is full: backpressure bites
      }
    }

    // The chain moves O's output under D's credits, stalling (not
    // dropping) when D is full.
    chains.TickAll();

    // D consumes slower than O produces: the end-to-end goodput gauge.
    for (uint64_t n = 0; n < kDownstreamPerStep; ++n) {
      auto received = device.NfReceive(d_id);
      if (!received.ok()) {
        break;
      }
      ++result.goodput;
      (void)d_vpp;  // D terminates the chain; frames are accounted, done.
    }

    // Bystander B: polls, digests, echoes — identical in every scenario.
    for (;;) {
      auto received = device.NfReceive(b_id);
      if (!received.ok()) {
        break;
      }
      net::Packet packet = std::move(received).value();
      b_rx_digest.Mix(packet.bytes().data(), packet.size());
      b_rx.Inc();
      if (device.NfSend(b_id, std::move(packet)).ok()) {
        b_tx.Inc();
      }
    }
    // B's wire egress is drained directly from its pipeline so O's
    // chained TX backlog stays where backpressure left it.
    for (;;) {
      auto out = b_vpp->DequeueTx();
      if (!out.ok()) {
        break;
      }
      b_wire_digest.Mix(out.value().bytes().data(), out.value().size());
      ++b_wire_packets;
    }

    // The control loop samples the data plane's pressure signal.
    if (step % 8 == 7) {
      const bool pressured =
          chains.AnyBackpressure(o_id) || o_vpp->RxFillFraction() > 0.9;
      SNIC_CHECK_OK(scaler.Step(1.0, pressured));
    }
  }

  // ---- B's invariant report ----------------------------------------------
  std::string& report = result.b_report;
  const core::VppStats& bs = b_vpp->stats();
  const bench::LaneDigest b_ring =
      bench::DigestRingLane(ring, static_cast<uint32_t>(b_id));
  AppendF(report, "b.nf_id: %" PRIu64 "\n", b_id);
  AppendF(report, "b.rx: %" PRIu64 " digest: %016" PRIx64 "\n", b_rx.value(),
          b_rx_digest.h);
  AppendF(report, "b.wire: %" PRIu64 " digest: %016" PRIx64 "\n",
          b_wire_packets, b_wire_digest.h);
  AppendF(report,
          "b.vpp: rx=%" PRIu64 " drop_full=%" PRIu64 " drop_admission=%" PRIu64
          " drop_early=%" PRIu64 " shed_rx=%" PRIu64 " shed_tx=%" PRIu64
          " tx=%" PRIu64 " rx_bytes=%" PRIu64 " tx_bytes=%" PRIu64 "\n",
          bs.rx_packets, bs.rx_dropped_full, bs.rx_dropped_admission,
          bs.rx_dropped_early, bs.rx_shed_deadline, bs.tx_shed_deadline,
          bs.tx_packets, bs.rx_bytes, bs.tx_bytes);
  AppendF(report, "b.bus: %" PRIu64 " digest: %016" PRIx64 "\n", b_bus_grants,
          b_bus_digest.h);
  AppendF(report, "b.metrics: tx=%" PRIu64 "\n", b_tx.value());
  AppendF(report, "b.ring: %" PRIu64 " digest: %016" PRIx64 "\n",
          b_ring.count, b_ring.digest);

  result.o_stats = o_vpp->stats();
  result.chain_stats = chains.link(link.value()).stats();
  result.breaker_stats = gate.breaker().stats();
  result.gate_stats = gate.stats();
  result.scaler_stats = scaler.stats();
  result.final_instances = scaler.instances();
  result.faults_injected = plane.injected_total();

  // ---- Scenario narrative ------------------------------------------------
  std::string& summary = result.summary;
  AppendF(summary,
          "  offered=%" PRIu64 " goodput=%" PRIu64 " ingress_rejected=%" PRIu64
          " tx_rejected=%" PRIu64 "\n",
          result.offered, result.goodput, result.wire_rejected,
          result.o_tx_rejected);
  const core::VppStats& os = result.o_stats;
  AppendF(summary,
          "  o.vpp: drop_admission=%" PRIu64 " drop_early=%" PRIu64
          " drop_full=%" PRIu64 " shed_rx=%" PRIu64 " shed_tx=%" PRIu64
          " shed_bytes=%" PRIu64 "\n",
          os.rx_dropped_admission, os.rx_dropped_early,
          os.rx_dropped_full + os.tx_dropped_full, os.rx_shed_deadline,
          os.tx_shed_deadline, os.shed_bytes);
  AppendF(summary,
          "  o.queue: peak_frames=%" PRIu64 "/%" PRIu64 " peak_bytes=%" PRIu64
          "/%" PRIu64 "\n",
          os.rx_peak_frames, kRxCapFrames, os.rx_peak_bytes,
          kRxCapFrames * kMaxFrameBytes);
  const core::ChainLinkStats& cs = result.chain_stats;
  AppendF(summary,
          "  chain: moved=%" PRIu64 " stalled=%" PRIu64 " stall_ticks=%" PRIu64
          " credit_faults=%" PRIu64 " dropped=%" PRIu64 "\n",
          cs.frames_moved, cs.frames_stalled, cs.stall_ticks, cs.credit_faults,
          cs.frames_dropped);
  const core::CircuitBreakerStats& brs = result.breaker_stats;
  AppendF(summary,
          "  breaker: opens=%" PRIu64 " reopens=%" PRIu64 " closes=%" PRIu64
          " rejected=%" PRIu64 " accel=%" PRIu64 " software=%" PRIu64 "\n",
          brs.opens, brs.reopens, brs.closes, brs.rejected,
          result.accel_frames, result.software_frames);
  AppendF(summary,
          "  scaler: instances=%" PRIu64 " pressure_scale_ups=%" PRIu64
          " pressured_steps=%" PRIu64 "\n",
          result.final_instances, result.scaler_stats.pressure_scale_ups,
          result.scaler_stats.pressured_steps);
  AppendF(summary, "  faults injected: %" PRIu64 "\n",
          result.faults_injected);
  return result;
}

}  // namespace
}  // namespace snic

int main(int argc, char** argv) {
  using namespace snic;

  const bench::SoakFlags flags = bench::ParseSoakFlags(
      argc, argv, /*default_seed=*/0x0ff10adull, /*quick_steps=*/1200,
      /*full_steps=*/6000);

  bench::PrintHeader("Overload soak: deterministic graceful degradation",
                     "bounded queues, backpressure and load shedding under "
                     "offered-load sweep");

  std::vector<ScenarioResult> results(kNumLoads);
  {
    auto pool = bench::MakePool(flags.jobs);
    runtime::ParallelFor(pool.get(), kNumLoads, [&](size_t task) {
      results[task] = RunScenario(task, flags.seed, flags.steps);
    });
  }

  std::printf("seed: %" PRIu64 "  steps/scenario: %" PRIu64 "\n\n", flags.seed,
              flags.steps);
  for (const ScenarioResult& r : results) {
    std::printf("load %3" PRIu64 "%%:\n%s\n", r.load_pct, r.summary.c_str());
  }

  // Invariant 1: the bystander's record is identical at every load factor.
  bool bystander_identical = true;
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i].b_report != results[0].b_report) {
      bystander_identical = false;
      std::printf("BYSTANDER DIVERGED at load %" PRIu64 "%%:\n--- %" PRIu64
                  "%% ---\n%s--- %" PRIu64 "%% ---\n%s",
                  results[i].load_pct, results[0].load_pct,
                  results[0].b_report.c_str(), results[i].load_pct,
                  results[i].b_report.c_str());
    }
  }
  std::printf("bystander-b report (all loads):\n%s\n",
              results[0].b_report.c_str());

  // Invariant 2: the bounded queue actually bounds, even at 4x.
  bool queue_bound_ok = true;
  for (const ScenarioResult& r : results) {
    if (r.o_stats.rx_peak_frames > kRxCapFrames ||
        r.o_stats.rx_peak_bytes > kRxCapFrames * kMaxFrameBytes) {
      queue_bound_ok = false;
      std::printf("QUEUE BOUND VIOLATED at load %" PRIu64
                  "%%: peak_frames=%" PRIu64 " peak_bytes=%" PRIu64 "\n",
                  r.load_pct, r.o_stats.rx_peak_frames,
                  r.o_stats.rx_peak_bytes);
    }
  }

  // Invariant 3: goodput never collapses as offered load grows.
  bool goodput_ok = true;
  uint64_t best_goodput = 0;
  for (const ScenarioResult& r : results) {
    if (r.goodput * 100 < best_goodput * 85) {
      goodput_ok = false;
      std::printf("GOODPUT COLLAPSED at load %" PRIu64 "%%: %" PRIu64
                  " vs best %" PRIu64 "\n",
                  r.load_pct, r.goodput, best_goodput);
    }
    if (r.goodput > best_goodput) {
      best_goodput = r.goodput;
    }
  }

  // The breaker must complete a full closed->open->half-open(->reopen)->
  // closed cycle in every scenario (the schedule is load-independent).
  const core::CircuitBreakerStats& top = results[kNumLoads - 1].breaker_stats;
  const bool breaker_cycled =
      top.opens >= 1 && top.reopens >= 1 && top.closes >= 1;
  if (!breaker_cycled) {
    std::printf("BREAKER NEVER CYCLED: opens=%" PRIu64 " reopens=%" PRIu64
                " closes=%" PRIu64 "\n",
                top.opens, top.reopens, top.closes);
  }
  // And sustained pressure must have scaled the elastic pool out at 4x
  // while the calm scenarios never saw a pressure launch.
  const bool pressure_ok =
      results[kNumLoads - 1].scaler_stats.pressure_scale_ups >= 1 &&
      results[0].scaler_stats.pressure_scale_ups == 0;
  if (!pressure_ok) {
    std::printf("PRESSURE SIGNAL WRONG: calm=%" PRIu64 " 4x=%" PRIu64 "\n",
                results[0].scaler_stats.pressure_scale_ups,
                results[kNumLoads - 1].scaler_stats.pressure_scale_ups);
  }

  const bool pass = bystander_identical && queue_bound_ok && goodput_ok &&
                    breaker_cycled && pressure_ok;
  std::printf("%s\n", pass ? "ALL OVERLOAD INVARIANTS HOLD"
                           : "OVERLOAD INVARIANT VIOLATED");

  bench::VerdictJson verdict("overload_soak", flags);
  verdict.AddBool("bystander_identical", bystander_identical);
  verdict.AddBool("queue_bound_ok", queue_bound_ok);
  verdict.AddBool("goodput_ok", goodput_ok);
  verdict.AddBool("breaker_cycled", breaker_cycled);
  verdict.AddBool("pressure_ok", pressure_ok);
  std::string curve = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    AppendF(curve,
            "%s{\"load_pct\":%" PRIu64 ",\"offered\":%" PRIu64
            ",\"goodput\":%" PRIu64 ",\"ingress_rejected\":%" PRIu64
            ",\"drop_admission\":%" PRIu64 ",\"drop_early\":%" PRIu64
            ",\"shed_deadline\":%" PRIu64 ",\"peak_rx_frames\":%" PRIu64
            ",\"peak_rx_bytes\":%" PRIu64 ",\"stall_ticks\":%" PRIu64
            ",\"pressure_scale_ups\":%" PRIu64 "}",
            i == 0 ? "" : ",", r.load_pct, r.offered, r.goodput,
            r.wire_rejected, r.o_stats.rx_dropped_admission,
            r.o_stats.rx_dropped_early,
            r.o_stats.rx_shed_deadline + r.o_stats.tx_shed_deadline,
            r.o_stats.rx_peak_frames, r.o_stats.rx_peak_bytes,
            r.chain_stats.stall_ticks, r.scaler_stats.pressure_scale_ups);
  }
  curve += "]";
  verdict.AddRaw("curve", curve);
  if (!verdict.Write(pass)) {
    return 1;
  }
  return pass ? 0 : 1;
}
