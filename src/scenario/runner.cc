#include "src/scenario/runner.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/accel/accelerator.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/chaining.h"
#include "src/core/overload.h"
#include "src/core/vnic/descriptor.h"
#include "src/core/vnic/pf_vf.h"
#include "src/crypto/keys.h"
#include "src/fault/fault.h"
#include "src/mgmt/dma.h"
#include "src/mgmt/nic_os.h"
#include "src/net/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/runtime/sweep.h"
#include "src/scenario/digest.h"
#include "src/sim/bus.h"

namespace snic::scenario {

namespace {

constexpr uint16_t kVfBufferBytes = 2048;
constexpr uint16_t kAttackerBufferBytes = 1024;
// Frames the overload section's chain link may move per tick (the §4.8
// overt-channel rate bound); the consumer's admission, not this, is what
// stalls the link.
constexpr uint32_t kChainFramesPerTick = 6;

// Appends one printf-formatted line, sized to fit: tenant names have no
// length bound, and a cut line would drop its counters from the report that
// bystander_identical compares.
void AppendF(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  const int length = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  SNIC_CHECK(length >= 0);
  const size_t at = out.size();
  out.resize(at + static_cast<size_t>(length) + 1);  // + vsnprintf's NUL
  std::vsnprintf(out.data() + at, static_cast<size_t>(length) + 1, fmt, args);
  va_end(args);
  out.resize(at + static_cast<size_t>(length));
}

mgmt::FunctionImage MakeImage(const TenantSpec& tenant) {
  mgmt::FunctionImage image;
  image.name = tenant.name;
  image.code_and_data.assign(3000, 0xab);
  image.cores = 1;
  image.memory_bytes = 8ull << 20;
  image.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kZip)] =
      tenant.zip_clusters;
  if (tenant.has_policy) {
    const OverloadPolicySpec& p = tenant.policy;
    image.overload.rx_queue_capacity_frames = p.rx_queue_capacity_frames;
    image.overload.tx_queue_capacity_frames = p.tx_queue_capacity_frames;
    image.overload.drop_policy = p.priority_early_drop
                                     ? core::DropPolicy::kPriorityEarlyDrop
                                     : core::DropPolicy::kTailDrop;
    image.overload.admission_burst_frames = p.admission_burst_frames;
    image.overload.admission_frames_per_refill = p.admission_frames_per_refill;
    image.overload.admission_refill_cycles = p.admission_refill_cycles;
    image.overload.deadline_cycles = p.deadline_cycles;
  }
  net::SwitchRule rule;
  rule.dst_port = tenant.port;
  image.switch_rules.push_back(rule);
  return image;
}

// Encodes a block of in-order RX descriptors continuing at `posted_total`
// (how a well-behaved tenant refills its ring).
std::vector<uint8_t> RefillBlock(uint64_t posted_total, uint32_t count,
                                 uint32_t ring_slots, uint16_t buffer_len) {
  std::vector<core::vnic::RxDescriptor> batch;
  batch.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    core::vnic::RxDescriptor descriptor;
    const uint64_t index = (posted_total + i) % ring_slots;
    descriptor.ring_index = static_cast<uint16_t>(index);
    descriptor.buffer_len = buffer_len;
    descriptor.buffer_addr = core::vnic::kBufferAlign * (index + 1);
    batch.push_back(descriptor);
  }
  return core::vnic::EncodeDescriptors(batch);
}

// Every synthesized frame flows 10.0.0.9 -> 203.0.113.7.
constexpr uint32_t kFrameSrcIp = 0x0a000009;
constexpr uint32_t kFrameDstIp = 0xcb007107;

net::Packet MakePacket(Rng& rng, uint16_t port) {
  net::FiveTuple tuple;
  tuple.src_ip = kFrameSrcIp;
  tuple.dst_ip = kFrameDstIp;
  tuple.src_port = static_cast<uint16_t>(10000 + rng.NextBounded(100));
  tuple.dst_port = port;
  tuple.protocol = 6;
  // Mixed frame sizes (the kMaxFrameBytes geometry) so priority-aware
  // early drop has real choices.
  std::vector<uint8_t> payload(32 + rng.NextBounded(4) * 64);
  for (size_t k = 0; k < payload.size(); ++k) {
    payload[k] = static_cast<uint8_t>(rng.NextU64());
  }
  return net::PacketBuilder().SetTuple(tuple).SetPayload(payload).Build();
}

// Per-tenant live state the step loop carries.
struct TenantState {
  uint64_t nf_id = 0;
  uint32_t vf = 0;
  Rng traffic{0};
  Fnv rx_digest;
  Fnv wire_digest;
  Fnv bus_digest;
  Fnv cpl_digest;
  uint64_t wire_packets = 0;
  uint64_t bus_grants = 0;
  uint64_t completions = 0;
  uint64_t posted_total = 0;
  uint64_t resets_seen = 0;
  obs::Counter* rx_counter = nullptr;
  obs::Counter* tx_counter = nullptr;
  // Recovery tracking.
  uint64_t crash_step = 0;
  bool crash_open = false;
};

}  // namespace

RunResult RunConstellation(const ScenarioSpec& spec, uint64_t seed,
                           obs::TraceRing* ring_out) {
  RunResult result;
  const size_t n = spec.tenants.size();
  result.tenants.resize(n);
  const uint64_t cps = spec.cycles_per_step;

  // The run's sinks, installed before the first component is built: every
  // component below binds its series and its ring lane at construction.
  obs::MetricRegistry registry;
  obs::TraceRing ring;
  obs::ScopedDefaultRegistry scoped_registry(&registry);
  obs::ScopedTraceRing scoped_ring(&ring);

  fault::FaultPlane plane;
  fault::ScopedFaultPlane scoped_plane(&plane);

  Rng vendor_rng(runtime::DeriveTaskSeed(seed, 2));
  crypto::VendorAuthority vendor(512, vendor_rng);
  core::SnicConfig config;
  config.num_cores = 8;
  config.dram_bytes = 256ull << 20;
  config.rsa_modulus_bits = 512;
  core::SnicDevice device(config, vendor);
  mgmt::NicOs nic_os(&device);

  const bool any_vf = [&] {
    for (const TenantSpec& t : spec.tenants) {
      if (t.has_vf) {
        return true;
      }
    }
    return false;
  }();
  core::vnic::PfVfManager front_end;
  if (any_vf) {
    device.AttachVnicFrontEnd(&front_end);
  }

  mgmt::SupervisorConfig sup_config;
  sup_config.seed = runtime::DeriveTaskSeed(seed, 3);
  sup_config.watchdog_timeout_cycles =
      spec.supervisor.watchdog_timeout_steps * cps;
  sup_config.backoff_base_cycles = spec.supervisor.backoff_base_steps * cps;
  sup_config.backoff_max_cycles = spec.supervisor.backoff_max_steps * cps;
  sup_config.backoff_jitter_pct = spec.supervisor.backoff_jitter_pct;
  sup_config.quarantine_after = spec.supervisor.quarantine_after;
  sup_config.stable_cycles = spec.supervisor.stable_steps * cps;
  sup_config.max_concurrent_restarts = spec.supervisor.max_concurrent_restarts;
  sup_config.verify_attestation = spec.supervisor.verify_attestation;
  mgmt::Supervisor supervisor(&nic_os, vendor.public_key(), sup_config);

  std::vector<TenantState> state(n);
  std::map<std::string, size_t> index_of;
  for (size_t i = 0; i < n; ++i) {
    const auto id = supervisor.Adopt(MakeImage(spec.tenants[i]));
    SNIC_CHECK(id.ok());
    state[i].nf_id = id.value();
    state[i].traffic = Rng(runtime::DeriveTaskSeed(seed, 16 + i));
    state[i].rx_counter =
        &registry.GetCounter("scenario.rx", {{"nf", spec.tenants[i].name}});
    state[i].tx_counter =
        &registry.GetCounter("scenario.tx", {{"nf", spec.tenants[i].name}});
    index_of[spec.tenants[i].name] = i;
  }
  const size_t target_index =
      spec.has_overload ? index_of.at(spec.overload.target) : n;
  const size_t downstream_index =
      spec.has_overload && !spec.overload.downstream.empty()
          ? index_of.at(spec.overload.downstream)
          : n;

  // The overload target's TX feeds the downstream tenant through one
  // credit-flow link, recreated whenever either endpoint relaunches; the
  // stats of every incarnation add up in the result.
  core::ChainManager chains(&device);
  const auto add_link_stats = [&] {
    const core::ChainLinkStats& stats = chains.link(0).stats();
    result.chain_frames_moved += stats.frames_moved;
    result.chain_frames_stalled += stats.frames_stalled;
  };
  const auto relink = [&] {
    if (chains.link_count() > 0) {
      add_link_stats();
      chains.RemoveLinksFor(chains.link(0).config().producer_nf);
    }
    core::ChainLinkConfig link;
    link.producer_nf = state[target_index].nf_id;
    link.consumer_nf = state[downstream_index].nf_id;
    link.frames_per_tick = kChainFramesPerTick;
    if (!chains.CreateLink(link).ok()) {
      // One endpoint is down: the target's TX waits for the relaunch that
      // relinks it, and never takes the wire past the downstream tenant.
      (void)device.SetTxChained(link.producer_nf, true);
    }
  };
  if (downstream_index < n) {
    relink();
  }

  // DMA banks: one channel per dma-enabled tenant, disjoint windows.
  mgmt::HostMemory host(64 * 1024);
  mgmt::DmaController dma(&device, &host);
  const auto bank_for = [](size_t index, uint64_t nf_id) {
    mgmt::DmaBankConfig bank;
    bank.nf_id = nf_id;
    bank.host_window_base = 4096 * index;
    bank.host_window_bytes = 4096;
    bank.nic_window_vbase = 0x10000 + 0x1000 * index;
    bank.nic_window_bytes = 4096;
    return bank;
  };
  for (size_t i = 0; i < n; ++i) {
    if (spec.tenants[i].dma) {
      SNIC_CHECK_OK(
          dma.ConfigureBank(static_cast<uint32_t>(i + 1),
                            bank_for(i, state[i].nf_id)));
    }
  }

  // VFs, created in declaration order (VF numbering is part of the replay).
  for (size_t i = 0; i < n; ++i) {
    if (!spec.tenants[i].has_vf) {
      continue;
    }
    const VfSpec& v = spec.tenants[i].vf;
    core::vnic::VfQuota quota;
    quota.ring_slots = v.ring_slots;
    quota.cq_slots = v.cq_slots;
    quota.posted_bytes_limit = v.posted_bytes_limit;
    quota.abuse_threshold = v.abuse_threshold;
    const auto vf =
        front_end.CreateVf(state[i].nf_id, device.Vpp(state[i].nf_id), quota);
    SNIC_CHECK(vf.ok());
    state[i].vf = vf.value();
  }

  // Abuse verdicts: attacker VFs feed containment (crash with kVnicAbuse);
  // a verdict on anyone else's VF is a detector false positive, counted.
  front_end.SetAbuseCallback([&](uint32_t vf, core::vnic::VfAbuse kind) {
    for (size_t i = 0; i < n; ++i) {
      if (!spec.tenants[i].has_vf || state[i].vf != vf) {
        continue;
      }
      if (spec.tenants[i].role != TenantRole::kAttacker) {
        ++result.false_abuse_flags;
        return;
      }
      ++result.abuse_reports[static_cast<int>(kind)];
      if (supervisor.HealthOf(spec.tenants[i].name) ==
          mgmt::NfHealth::kRunning) {
        supervisor.ReportCrash(spec.tenants[i].name,
                               mgmt::CrashCause::kVnicAbuse);
      }
      return;
    }
  });

  supervisor.SetRestartCallback([&](const std::string& name, uint64_t old_id,
                                    uint64_t new_id) {
    const auto it = index_of.find(name);
    SNIC_CHECK(it != index_of.end());
    const size_t i = it->second;
    plane.RetargetRules(old_id, new_id);
    state[i].nf_id = new_id;
    ++result.tenants[i].restarts;
    if (spec.tenants[i].dma) {
      SNIC_CHECK_OK(dma.ConfigureBank(static_cast<uint32_t>(i + 1),
                                      bank_for(i, new_id)));
    }
    if (spec.tenants[i].has_vf) {
      SNIC_CHECK_OK(
          front_end.RebindVf(state[i].vf, new_id, device.Vpp(new_id)));
    }
    if (downstream_index < n && (i == target_index || i == downstream_index)) {
      relink();
    }
  });

  // The spec's fault schedule, installed after setup (skip/count windows
  // start from here, so adoption launches never consume a rule's hits).
  for (const FaultRuleSpec& r : spec.faults) {
    fault::FaultRule rule;
    rule.site = r.site;
    if (r.has_raw_id) {
      rule.nf_id = r.raw_id;
    } else if (r.nf.empty()) {
      rule.nf_id = fault::kAnyNf;
    } else {
      rule.nf_id = state[index_of.at(r.nf)].nf_id;
    }
    rule.skip = r.skip;
    rule.count = r.count;
    rule.period = r.period;
    rule.stall_cycles = r.stall_cycles;
    rule.on_attempt = r.on_attempt;
    plane.AddRule(rule);
  }

  std::unique_ptr<sim::TemporalPartitionArbiter> bus;
  if (spec.bus_domains > 0) {
    sim::TemporalPartitionArbiter::Config bus_config;
    bus_config.transfer_cycles = 4;
    bus_config.num_domains = spec.bus_domains;
    bus_config.epoch_cycles = 64;
    bus_config.dead_time_cycles = 8;
    bus = std::make_unique<sim::TemporalPartitionArbiter>(bus_config);
  }

  const auto zip = accel::AcceleratorType::kZip;
  const auto cluster_of = [&](uint64_t nf_id) -> int {
    for (uint32_t i = 0; i < device.accel_pool().NumClusters(zip); ++i) {
      if (device.accel_pool().Owner(zip, i) ==
          std::optional<uint64_t>(nf_id)) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  // The overload target's breaker-gated accelerator dispatch; recreated
  // (state and all) when the target relaunches, like a fresh instance.
  std::unique_ptr<core::AccelDispatchGate> gate;
  uint64_t gate_generation = 0;
  const auto ensure_gate = [&](size_t i) {
    if (!spec.has_overload || i != target_index ||
        spec.tenants[i].zip_clusters == 0) {
      return;
    }
    if (gate != nullptr && gate_generation == result.tenants[i].restarts) {
      return;
    }
    core::CircuitBreakerConfig breaker_config;
    breaker_config.failures_to_open = 3;
    breaker_config.open_cycles = 10 * cps;
    breaker_config.half_open_successes = 2;
    gate = std::make_unique<core::AccelDispatchGate>(
        &device.accel_pool(), state[i].nf_id, breaker_config);
    gate_generation = result.tenants[i].restarts;
  };

  uint64_t offered_acc = 0;

  for (uint64_t step = 0; step < spec.steps; ++step) {
    const uint64_t now = (step + 1) * cps;
    plane.AdvanceClockTo(now);
    device.AdvanceClockTo(now);

    // --- vNIC maintenance -------------------------------------------------
    for (size_t i = 0; i < n; ++i) {
      if (!spec.tenants[i].has_vf) {
        continue;
      }
      TenantState& ts = state[i];
      const TenantSpec& t = spec.tenants[i];
      const bool attacker = t.role == TenantRole::kAttacker;
      if (attacker) {
        const bool running =
            supervisor.HealthOf(t.name) == mgmt::NfHealth::kRunning;
        if (!running || front_end.IsQuarantined(ts.vf)) {
          continue;
        }
        const core::vnic::VfStats& xs = front_end.StatsOf(ts.vf);
        if (xs.resets != ts.resets_seen) {
          ts.resets_seen = xs.resets;
          ts.posted_total = 0;  // VF reset rewound the expected ring index
        }
        const uint32_t occupancy = front_end.RingOccupancy(ts.vf);
        if (occupancy < t.vf.ring_slots) {
          const uint32_t refill = t.vf.ring_slots - occupancy;
          if (front_end
                  .PostDescriptors(ts.vf,
                                   RefillBlock(ts.posted_total, refill,
                                               t.vf.ring_slots,
                                               kAttackerBufferBytes))
                  .ok()) {
            ts.posted_total += refill;
          }
        }
        const uint64_t flood =
            spec.has_attack && spec.attack.target == t.name
                ? spec.attack.flood_rings
                : 0;
        for (uint64_t k = 0; k < 1 + flood; ++k) {
          (void)front_end.RingDoorbell(ts.vf);
        }
        const bool squat =
            spec.has_attack && spec.attack.target == t.name && spec.attack.squat;
        if (!squat) {
          while (front_end.Harvest(ts.vf).ok()) {
          }
        }
      } else {
        // Well-behaved VF tenant: keep the ring full, one doorbell per
        // step — comfortably inside the policer budget.
        const uint32_t occupancy = front_end.RingOccupancy(ts.vf);
        if (occupancy < t.vf.ring_slots) {
          const uint32_t refill = t.vf.ring_slots - occupancy;
          SNIC_CHECK_OK(front_end.PostDescriptors(
              ts.vf, RefillBlock(ts.posted_total, refill, t.vf.ring_slots,
                                 kVfBufferBytes)));
          ts.posted_total += refill;
        }
        SNIC_CHECK(front_end.RingDoorbell(ts.vf));
      }
    }

    // --- Wire traffic -----------------------------------------------------
    for (size_t i = 0; i < n; ++i) {
      TenantState& ts = state[i];
      const TenantSpec& t = spec.tenants[i];
      if (spec.has_overload && i == target_index) {
        // Offered load at load_pct% of the service budget, scheduled by an
        // integer accumulator so fractional factors stay deterministic.
        offered_acc += spec.overload.load_pct * spec.overload.service_per_step;
        while (offered_acc >= 100) {
          offered_acc -= 100;
          ++result.offered;
          (void)device.DeliverFromWire(MakePacket(ts.traffic, t.port));
        }
        continue;
      }
      for (uint64_t k = 0; k < t.frames_per_step; ++k) {
        (void)device.DeliverFromWire(MakePacket(ts.traffic, t.port));
      }
    }

    // --- Bus grants -------------------------------------------------------
    if (bus != nullptr) {
      for (uint32_t d = 0; d < spec.bus_domains; ++d) {
        const uint64_t grant = bus->Grant(now, d);
        for (size_t i = 0; i < n; ++i) {
          if (spec.tenants[i].bus_domain == static_cast<int32_t>(d)) {
            state[i].bus_digest.Mix64(grant);
            ++state[i].bus_grants;
          }
        }
      }
    }

    // --- Per-tenant service ----------------------------------------------
    for (size_t i = 0; i < n; ++i) {
      TenantState& ts = state[i];
      const TenantSpec& t = spec.tenants[i];
      const bool running =
          supervisor.HealthOf(t.name) == mgmt::NfHealth::kRunning;

      if (t.role == TenantRole::kBystander) {
        // Poll, digest, echo: everything it observes joins its record.
        for (;;) {
          auto received = device.NfReceive(ts.nf_id);
          if (!received.ok()) {
            break;
          }
          net::Packet packet = std::move(received).value();
          ts.rx_digest.Mix(packet.bytes().data(), packet.size());
          ts.rx_counter->Inc();
          if (device.NfSend(ts.nf_id, std::move(packet)).ok()) {
            ts.tx_counter->Inc();
          }
        }
        if (t.has_vf) {
          for (;;) {
            const auto completion = front_end.Harvest(ts.vf);
            if (!completion.ok()) {
              break;
            }
            const auto& c = completion.value();
            ts.cpl_digest.Mix64(c.ring_index);
            ts.cpl_digest.Mix64(c.bytes);
            ts.cpl_digest.Mix64(c.cycle);
            ts.cpl_digest.Mix64(c.wait_cycles);
            ++ts.completions;
          }
        }
        supervisor.Heartbeat(t.name);
        continue;
      }

      if (t.role == TenantRole::kAttacker) {
        // Drain its own pipeline so squatting (not a full VPP) is what
        // fills the completion queue.
        if (running) {
          for (;;) {
            auto received = device.NfReceive(ts.nf_id);
            if (!received.ok()) {
              break;
            }
            (void)device.NfSend(ts.nf_id, std::move(received).value());
          }
          supervisor.Heartbeat(t.name);
        }
        continue;
      }

      // Workload tenants.
      if (!running) {
        continue;
      }
      const bool hung = SNIC_FAULT_FIRES(fault::sites::kNfHang, ts.nf_id);
      if (hung) {
        continue;  // no service, no heartbeat: the watchdog's job
      }
      bool crashed = false;
      if (spec.has_overload && i == target_index) {
        // Budgeted service through the breaker-gated accelerator: an open
        // breaker answers immediately and the frame takes the software
        // path — degraded, never dropped.
        ensure_gate(i);
        const int cluster =
            t.zip_clusters > 0 ? cluster_of(ts.nf_id) : -1;
        for (uint64_t k = 0; k < spec.overload.service_per_step; ++k) {
          auto received = device.NfReceive(ts.nf_id);
          if (!received.ok()) {
            break;
          }
          if (gate != nullptr && cluster >= 0) {
            (void)gate->Dispatch(zip, static_cast<uint32_t>(cluster), 0x1000,
                                 false, now);
          }
          (void)device.NfSend(ts.nf_id, std::move(received).value());
        }
      } else {
        for (;;) {
          auto received = device.NfReceive(ts.nf_id);
          if (!received.ok()) {
            break;
          }
          (void)device.NfSend(ts.nf_id, std::move(received).value());
        }
      }
      if (t.dma) {
        const uint32_t channel = static_cast<uint32_t>(i + 1);
        Status h2n = dma.HostToNic(channel, 4096 * i,
                                   0x10000 + 0x1000 * i, 256);
        Status n2h = !h2n.ok() ? OkStatus()
                               : dma.NicToHost(channel, 0x10000 + 0x1000 * i,
                                               4096 * i + 1024, 256);
        if (h2n.code() == ErrorCode::kUnavailable ||
            n2h.code() == ErrorCode::kUnavailable) {
          supervisor.ReportCrash(t.name, mgmt::CrashCause::kDmaFault);
          crashed = true;
        }
      }
      if (!crashed && t.zip_clusters > 0 && !supervisor.IsDegraded(t.name) &&
          !(spec.has_overload && i == target_index)) {
        const int cluster = cluster_of(ts.nf_id);
        if (cluster >= 0) {
          auto access = device.accel_pool().ThreadAccess(
              zip, static_cast<uint32_t>(cluster), 0x1000, false);
          if (!access.ok() &&
              access.status().code() == ErrorCode::kUnavailable) {
            supervisor.ReportCrash(t.name, mgmt::CrashCause::kAccelFault);
            crashed = true;
          }
        }
      }
      if (crashed) {
        ++result.tenants[i].crashes_seen;
      } else {
        supervisor.Heartbeat(t.name);
      }
    }

    // The chain moves the target's output into the downstream tenant under
    // its credits, stalling (not dropping) when it cannot admit more.
    chains.TickAll();

    supervisor.Tick(now);

    // Mirror Supervisor quarantine verdicts to the device edge: from here
    // on the tenant's frames drop at its VF, not in the switch.
    for (size_t i = 0; i < n; ++i) {
      if (spec.tenants[i].has_vf &&
          supervisor.HealthOf(spec.tenants[i].name) ==
              mgmt::NfHealth::kQuarantined &&
          !front_end.IsQuarantined(state[i].vf)) {
        SNIC_CHECK_OK(front_end.QuarantineVf(state[i].vf));
      }
    }

    // Recovery-deadline tracking: a crash opens a window that closes when
    // the tenant is Running again or quarantined.
    for (size_t i = 0; i < n; ++i) {
      TenantState& ts = state[i];
      const mgmt::NfHealth health = supervisor.HealthOf(spec.tenants[i].name);
      if (!ts.crash_open && health == mgmt::NfHealth::kRestarting) {
        ts.crash_open = true;
        ts.crash_step = step;
      } else if (ts.crash_open && health != mgmt::NfHealth::kRestarting) {
        const uint64_t gap = step - ts.crash_step;
        if (gap > result.tenants[i].worst_recovery_steps) {
          result.tenants[i].worst_recovery_steps = gap;
        }
        ts.crash_open = false;
      }
    }

    // --- Drain the wire; attribute frames by destination port ------------
    for (;;) {
      auto out = device.TransmitToWire();
      if (!out.ok()) {
        break;
      }
      const auto parsed = net::Parse(out.value().bytes());
      if (!parsed.ok()) {
        continue;
      }
      const uint16_t port = parsed.value().Tuple().dst_port;
      for (size_t i = 0; i < n; ++i) {
        if (spec.tenants[i].port == port) {
          state[i].wire_digest.Mix(out.value().bytes().data(),
                                   out.value().size());
          ++state[i].wire_packets;
          break;
        }
      }
    }
  }

  // ---- Per-tenant reports and outcomes -------------------------------------
  for (size_t i = 0; i < n; ++i) {
    TenantState& ts = state[i];
    const TenantSpec& t = spec.tenants[i];
    TenantOutcome& outcome = result.tenants[i];
    std::string& report = outcome.report;

    const core::VirtualPacketPipeline* vpp = device.Vpp(ts.nf_id);
    AppendF(report, "%s.role: %s\n", t.name.c_str(),
            std::string(TenantRoleName(t.role)).c_str());
    AppendF(report, "%s.rx: %" PRIu64 " digest: %016" PRIx64 "\n",
            t.name.c_str(), ts.rx_counter->value(), ts.rx_digest.h);
    AppendF(report, "%s.wire: %" PRIu64 " digest: %016" PRIx64 "\n",
            t.name.c_str(), ts.wire_packets, ts.wire_digest.h);
    if (vpp != nullptr) {
      const core::VppStats& s = vpp->stats();
      AppendF(report,
              "%s.vpp: rx=%" PRIu64 " drop_full=%" PRIu64
              " drop_fault=%" PRIu64 " corrupt_fault=%" PRIu64
              " drop_admission=%" PRIu64 " drop_early=%" PRIu64
              " shed_rx=%" PRIu64 " shed_tx=%" PRIu64 " tx=%" PRIu64
              " rx_bytes=%" PRIu64 " tx_bytes=%" PRIu64 "\n",
              t.name.c_str(), s.rx_packets, s.rx_dropped_full,
              s.rx_dropped_fault, s.rx_corrupt_fault, s.rx_dropped_admission,
              s.rx_dropped_early, s.rx_shed_deadline, s.tx_shed_deadline,
              s.tx_packets, s.rx_bytes, s.tx_bytes);
    }
    if (t.bus_domain >= 0) {
      AppendF(report, "%s.bus: %" PRIu64 " digest: %016" PRIx64 "\n",
              t.name.c_str(), ts.bus_grants, ts.bus_digest.h);
    }
    if (t.has_vf) {
      const core::vnic::VfStats& vfs = front_end.StatsOf(ts.vf);
      AppendF(report, "%s.completions: %" PRIu64 " digest: %016" PRIx64 "\n",
              t.name.c_str(), ts.completions, ts.cpl_digest.h);
      AppendF(report,
              "%s.vf: posted=%" PRIu64 " delivered=%" PRIu64
              " harvested=%" PRIu64 " rings=%" PRIu64
              " ring_rejected=%" PRIu64 " drops=%" PRIu64 "/%" PRIu64
              "/%" PRIu64 "/%" PRIu64 " abuse=%" PRIu64 " max_wait=%" PRIu64
              "\n",
              t.name.c_str(), vfs.posts_accepted, vfs.delivered,
              vfs.harvested, vfs.doorbell_rings, vfs.doorbell_rejected,
              vfs.dropped_no_descriptor, vfs.dropped_cq_full, vfs.dropped_vpp,
              vfs.dropped_quarantined, vfs.abuse_flags,
              vfs.max_delivery_wait_cycles);
    }
    AppendF(report, "%s.metrics: tx=%" PRIu64 "\n", t.name.c_str(),
            ts.tx_counter->value());
    const obs::LaneDigest lane =
        obs::DigestLane(ring, static_cast<uint32_t>(ts.nf_id));
    AppendF(report, "%s.ring: %" PRIu64 " digest: %016" PRIx64 "\n",
            t.name.c_str(), lane.count, lane.digest);

    outcome.final_health = supervisor.HealthOf(t.name);
    outcome.degraded = supervisor.IsDegraded(t.name);
    outcome.edge_quarantined = t.has_vf && front_end.IsQuarantined(ts.vf);
    outcome.wire_packets = ts.wire_packets;
    if (ts.crash_open) {
      ++outcome.unresolved_crashes;
      const uint64_t gap = spec.steps - ts.crash_step;
      if (gap > outcome.worst_recovery_steps) {
        outcome.worst_recovery_steps = gap;
      }
    }
  }

  if (chains.link_count() > 0) {
    add_link_stats();
  }
  if (spec.has_overload && target_index < n) {
    result.target_goodput = result.tenants[target_index].wire_packets;
    const core::VirtualPacketPipeline* vpp =
        device.Vpp(state[target_index].nf_id);
    if (vpp != nullptr) {
      result.queue_peak_frames = vpp->stats().rx_peak_frames;
      result.queue_peak_bytes = vpp->stats().rx_peak_bytes;
    }
  }
  result.supervisor = supervisor.stats();
  result.restart_queue_peak = supervisor.restart_queue_peak();
  result.faults_injected = plane.injected_total();
  if (ring_out != nullptr) {
    *ring_out = std::move(ring);
  }
  return result;
}

ScenarioVerdict EvaluateScenario(const ScenarioSpec& spec, uint64_t seed) {
  const VerdictSpec& v = spec.verdicts;
  ScenarioVerdict verdict;
  verdict.pass = true;
  std::string& detail = verdict.detail;

  const RunResult subject = RunConstellation(spec, seed);
  const bool needs_baseline = v.bystander_identical ||
                              v.goodput_floor_pct > 0 ||
                              !v.detect_abuse.empty();
  RunResult baseline;
  if (needs_baseline) {
    baseline = RunConstellation(BaselineTwin(spec), seed);
  }

  const auto check = [&](const char* name, bool ok,
                         const std::string& why = "") {
    if (!detail.empty()) {
      detail += " ";
    }
    detail += name;
    if (ok) {
      detail += "=ok";
    } else {
      verdict.pass = false;
      detail += "=FAIL";
      if (!why.empty()) {
        detail += "(" + why + ")";
      }
    }
  };
  const auto index_of = [&](const std::string& name) {
    for (size_t i = 0; i < spec.tenants.size(); ++i) {
      if (spec.tenants[i].name == name) {
        return i;
      }
    }
    return spec.tenants.size();
  };

  if (v.bystander_identical) {
    bool identical = true;
    std::string who;
    for (size_t i = 0; i < spec.tenants.size(); ++i) {
      if (spec.tenants[i].role != TenantRole::kBystander) {
        continue;
      }
      if (subject.tenants[i].report != baseline.tenants[i].report) {
        identical = false;
        who = spec.tenants[i].name;
      }
    }
    check("bystander_identical", identical, who);
  }
  for (const std::string& name : v.containment) {
    const size_t i = index_of(name);
    const TenantOutcome& o = subject.tenants[i];
    const bool contained =
        o.final_health == mgmt::NfHealth::kQuarantined &&
        (!spec.tenants[i].has_vf || o.edge_quarantined);
    check(("containment:" + name).c_str(), contained,
          std::string(mgmt::NfHealthName(o.final_health)));
  }
  for (const std::string& name : v.must_recover) {
    const size_t i = index_of(name);
    const TenantOutcome& o = subject.tenants[i];
    const bool recovered =
        o.final_health == mgmt::NfHealth::kRunning && o.restarts >= 1;
    check(("must_recover:" + name).c_str(), recovered,
          "health=" + std::string(mgmt::NfHealthName(o.final_health)) +
              ",restarts=" + std::to_string(o.restarts));
  }
  if (v.recovery_deadline_steps > 0) {
    bool within = true;
    std::string why;
    for (size_t i = 0; i < spec.tenants.size(); ++i) {
      const TenantOutcome& o = subject.tenants[i];
      if (o.worst_recovery_steps > v.recovery_deadline_steps) {
        within = false;
        why = spec.tenants[i].name + "=" +
              std::to_string(o.worst_recovery_steps);
      }
    }
    check("recovery_deadline", within, why);
  }
  if (v.goodput_floor_pct > 0) {
    const bool held = subject.target_goodput * 100 >=
                      baseline.target_goodput * v.goodput_floor_pct;
    check("goodput_floor", held,
          std::to_string(subject.target_goodput) + "/" +
              std::to_string(baseline.target_goodput));
  }
  if (v.queue_bound) {
    const size_t i = index_of(spec.overload.target);
    const uint64_t cap = spec.tenants[i].policy.rx_queue_capacity_frames;
    const bool bounded = subject.queue_peak_frames <= cap &&
                         subject.queue_peak_bytes <= cap * kMaxFrameBytes;
    check("queue_bound", bounded,
          "peak=" + std::to_string(subject.queue_peak_frames) + "/" +
              std::to_string(cap));
  }
  // Detection counts only when it is specific: the subject flagged no
  // well-behaved VF, and the attack-free twin flagged and crashed nothing.
  uint64_t twin_flags = 0;
  for (const uint64_t reports : baseline.abuse_reports) {
    twin_flags += reports;
  }
  const bool detector_clean = subject.false_abuse_flags == 0 &&
                              twin_flags == 0 &&
                              baseline.supervisor.crashes == 0;
  const std::string clean_why =
      "false_flags=" + std::to_string(subject.false_abuse_flags) +
      ",twin_flags=" + std::to_string(twin_flags) +
      ",twin_crashes=" + std::to_string(baseline.supervisor.crashes);
  for (const std::string& kind : v.detect_abuse) {
    const std::optional<core::vnic::VfAbuse> abuse = AbuseKindFromName(kind);
    SNIC_CHECK(abuse.has_value());
    const bool detected = subject.abuse_reports[static_cast<int>(*abuse)] > 0;
    check(("detect_abuse:" + kind).c_str(), detected && detector_clean,
          detected ? clean_why : "");
  }
  if (detail.empty()) {
    detail = "no-predicates";
  }
  return verdict;
}

}  // namespace snic::scenario
