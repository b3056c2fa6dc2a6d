// datapath_chain: one op is a batch of device steps for two tenants on one
// device behind the vNIC front end. Each step posts RX descriptors and rings
// each VF's doorbell, delivers a fixed burst from the wire, advances the
// clock, harvests completions, drains every NF's RX through its
// NetworkFunction::Process and NfSend, ticks the chain links, and drains
// the wire with TransmitToWire.
//
//   tenant A  FW -> DPI -> Monitor, a credit-linked chain of paper NFs,
//             offered a fixed load under its capacity (goodput ratio 1.0);
//   tenant B  a NAT neighbour offered 1.5x its admission rate, with
//             priority-early-drop and a deadline, so the admission-reject,
//             queue-full and deadline-shed paths run beside forwarding.
//
// This is the only workload where net, vnic, the core queues, chaining,
// overload and nf do nearly all the work and crypto none: the bypass
// workload for every crypto change. Frames come from the CAIDA-like Zipf-1.1
// stream (smallest frames included), generated in set-up and staged before
// each op, so an op times only the device and the NFs.

#include <algorithm>
#include <array>
#include <utility>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/accel/aho_corasick.h"
#include "src/common/rng.h"
#include "src/core/chaining.h"
#include "src/core/snic_device.h"
#include "src/core/vnic/descriptor.h"
#include "src/core/vnic/pf_vf.h"
#include "src/crypto/keys.h"
#include "src/mgmt/nic_os.h"
#include "src/net/packet.h"
#include "src/net/parser.h"
#include "src/nf/dpi_nf.h"
#include "src/nf/nf_factory.h"
#include "src/scenario/digest.h"
#include "src/trace/trace_gen.h"

namespace perfbench {
namespace {

using namespace snic;

constexpr uint16_t kChainPort = 80;
constexpr uint16_t kNeighborPort = 5353;
constexpr uint64_t kCyclesPerStep = 1000;
constexpr uint32_t kStepsPerOp = 64;
constexpr uint32_t kChainFramesPerStep = 24;
constexpr uint32_t kNeighborFramesPerStep = 24;    // 1.5x its admission rate
constexpr uint32_t kNeighborAdmittedPerStep = 16;
constexpr uint32_t kNeighborServicePerStep = 6;    // the queue fills
constexpr uint32_t kRingSlots = 64;
constexpr uint16_t kBufferBytes = 2048;
// The chain tenant's pool holds exactly one cycle of ops. Its cost depends
// on which flows are heavy (firewall verdicts decide how much reaches DPI),
// so it comes from a fixed stream seed and every whole cycle replays the
// same frames; the run's seed picks the starting op within the cycle and
// generates the neighbour's traffic, whose cost does not depend on content.
constexpr uint64_t kCycleOps = 16;
constexpr size_t kChainPoolFrames =
    kCycleOps * kStepsPerOp * kChainFramesPerStep;
constexpr size_t kNeighborPoolFrames = 16384;
constexpr uint64_t kChainStreamSeed = 7;

std::vector<uint8_t> RefillBlock(uint64_t posted_total, uint32_t count) {
  std::vector<core::vnic::RxDescriptor> batch(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t index = (posted_total + i) % kRingSlots;
    batch[i].ring_index = static_cast<uint16_t>(index);
    batch[i].buffer_len = kBufferBytes;
    batch[i].buffer_addr = core::vnic::kBufferAlign * (index + 1);
  }
  return core::vnic::EncodeDescriptors(batch);
}

// Frames of one tenant: the CAIDA-like stream re-addressed to the tenant's
// port from an internal source, payload kept, with the pool index in the
// first payload bytes so a frame can be traced back to its input.
std::vector<net::Packet> MakePool(uint64_t seed, uint16_t port, size_t size) {
  trace::PacketStream stream(trace::TraceConfig::CaidaLike(seed));
  std::vector<net::Packet> pool;
  pool.reserve(size);
  while (pool.size() < size) {
    const net::Packet packet = stream.Next();
    const auto parsed = net::Parse(packet.bytes());
    if (!parsed.ok()) {
      continue;
    }
    net::FiveTuple tuple = parsed.value().Tuple();
    tuple.src_ip = 0x0a000000u | (tuple.src_ip & 0x00ffffffu);
    tuple.dst_port = port;
    tuple.protocol = 6;
    const auto payload = packet.bytes().subspan(parsed.value().payload_offset);
    std::vector<uint8_t> bytes(payload.begin(), payload.end());
    const uint32_t index = static_cast<uint32_t>(pool.size());
    for (size_t k = 0; k < 4 && k < bytes.size(); ++k) {
      bytes[k] = static_cast<uint8_t>(index >> (8 * k));
    }
    if (bytes.size() < 4) {
      continue;
    }
    pool.push_back(net::PacketBuilder().SetTuple(tuple).SetPayload(bytes).Build());
  }
  return pool;
}

uint32_t PoolIndexOf(const net::Packet& packet) {
  const auto parsed = net::Parse(packet.bytes());
  if (!parsed.ok() || packet.size() < parsed.value().payload_offset + 4) {
    return UINT32_MAX;
  }
  const uint8_t* p = packet.bytes().data() + parsed.value().payload_offset;
  return p[0] | (p[1] << 8) | (p[2] << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

uint16_t DstPortOf(const net::Packet& packet) {
  const auto parsed = net::Parse(packet.bytes());
  return parsed.ok() ? parsed.value().Tuple().dst_port : 0;
}

struct Tenant {
  uint64_t nf_id = 0;
  uint32_t vf = 0;
  uint64_t posted_total = 0;
};

class DatapathChain : public Workload {
 public:
  explicit DatapathChain(const WorkloadArgs& args)
      : tracer_(*args.tracer),
        span_post_(tracer_.Intern("vnic.post")),
        span_harvest_(tracer_.Intern("vnic.harvest")),
        span_deliver_chain_(tracer_.Intern("core.deliver_chain")),
        span_deliver_neighbor_(tracer_.Intern("core.deliver_neighbor")),
        span_clock_(tracer_.Intern("core.clock")),
        span_receive_(tracer_.Intern("core.nf_receive")),
        span_send_(tracer_.Intern("core.nf_send")),
        span_tick_(tracer_.Intern("core.chain_tick")),
        span_transmit_(tracer_.Intern("core.transmit")),
        span_nf_{tracer_.Intern("nf.fw"), tracer_.Intern("nf.dpi"),
                 tracer_.Intern("nf.monitor"), tracer_.Intern("nf.nat")} {
    Rng vendor_rng(2);
    vendor_ = std::make_unique<crypto::VendorAuthority>(512, vendor_rng);
    core::SnicConfig config;
    config.num_cores = 8;
    config.dram_bytes = 256ull << 20;
    config.rsa_modulus_bits = 512;
    device_ = std::make_unique<core::SnicDevice>(config, *vendor_);
    nic_os_ = std::make_unique<mgmt::NicOs>(device_.get());
    device_->AttachVnicFrontEnd(&front_end_);
    chains_ = std::make_unique<core::ChainManager>(device_.get());

    fw_.nf_id = Launch("fw", kChainPort, {});
    dpi_.nf_id = Launch("dpi", 10001, {});
    mon_.nf_id = Launch("monitor", 10002, {});
    core::OverloadPolicy policy;
    policy.rx_queue_capacity_frames = 32;
    policy.drop_policy = core::DropPolicy::kPriorityEarlyDrop;
    policy.admission_burst_frames = kNeighborAdmittedPerStep;
    policy.admission_frames_per_refill = kNeighborAdmittedPerStep;
    policy.admission_refill_cycles = kCyclesPerStep;
    policy.deadline_cycles = 4 * kCyclesPerStep;
    nat_.nf_id = Launch("nat", kNeighborPort, policy);
    for (Tenant* t : {&fw_, &nat_}) {
      core::vnic::VfQuota quota;
      quota.ring_slots = kRingSlots;
      quota.cq_slots = kRingSlots;
      t->vf = front_end_.CreateVf(t->nf_id, device_->Vpp(t->nf_id), quota)
                  .value();
    }
    for (const auto& [producer, consumer] :
         {std::pair{fw_.nf_id, dpi_.nf_id}, std::pair{dpi_.nf_id, mon_.nf_id}}) {
      core::ChainLinkConfig link;
      link.producer_nf = producer;
      link.consumer_nf = consumer;
      link.frames_per_tick = kChainFramesPerStep;
      chains_->CreateLink(link).value();
    }

    // The paper NFs (§5.1 parameters), on the device path and as standalone
    // references; the two DPI instances share one automaton.
    const auto graph = std::make_shared<const accel::AhoCorasick>(
        accel::GenerateDpiRuleset(nf::DpiConfig{}.num_patterns,
                                  nf::DpiConfig{}.seed));
    for (auto* set : {&device_nfs_, &reference_nfs_}) {
      (*set)[0] = nf::MakeNf(nf::NfKind::kFirewall);
      (*set)[1] = std::make_unique<nf::DpiNf>(graph, nf::DpiConfig{});
      (*set)[2] = nf::MakeNf(nf::NfKind::kMonitor);
      (*set)[3] = nf::MakeNf(nf::NfKind::kNat);
    }
    chain_pool_ = MakePool(kChainStreamSeed, kChainPort, kChainPoolFrames);
    neighbor_pool_ = MakePool(args.seed, kNeighborPort, kNeighborPoolFrames);
    first_op_ = args.seed % kCycleOps;
  }

  uint64_t CycleOps() const override { return kCycleOps; }
  uint64_t FixedOps() const override { return kCycleOps; }

  void PrepareOp(uint64_t op) override {
    const auto stage = [&](const std::vector<net::Packet>& pool,
                           uint32_t per_step, std::vector<net::Packet>* out) {
      out->clear();
      const uint64_t base = (first_op_ + op) * kStepsPerOp * per_step;
      for (uint64_t i = 0; i < uint64_t{kStepsPerOp} * per_step; ++i) {
        out->push_back(pool[(base + i) % pool.size()]);
      }
    };
    stage(chain_pool_, kChainFramesPerStep, &chain_frames_);
    stage(neighbor_pool_, kNeighborFramesPerStep, &neighbor_frames_);
    egress_.clear();
    chain_admitted_.clear();
    stats_before_ = Snapshot();
  }

  void RunOp(uint64_t /*op*/) override {
    size_t next_chain = 0, next_neighbor = 0;
    for (uint32_t step = 0; step < kStepsPerOp; ++step) {
      {
        ScopedSpan span(tracer_, span_post_);
        for (Tenant* t : {&fw_, &nat_}) {
          const uint32_t refill =
              kRingSlots - front_end_.RingOccupancy(t->vf);
          if (refill > 0 &&
              front_end_.PostDescriptors(t->vf, RefillBlock(t->posted_total,
                                                            refill))
                  .ok()) {
            t->posted_total += refill;
          }
          (void)front_end_.RingDoorbell(t->vf);
        }
      }
      for (uint32_t k = 0; k < kChainFramesPerStep; ++k) {
        ScopedSpan span(tracer_, span_deliver_chain_);
        if (device_->DeliverFromWire(std::move(chain_frames_[next_chain]))
                .ok()) {
          chain_admitted_.push_back(static_cast<uint32_t>(next_chain));
        }
        ++next_chain;
      }
      for (uint32_t k = 0; k < kNeighborFramesPerStep; ++k) {
        ScopedSpan span(tracer_, span_deliver_neighbor_);
        (void)device_->DeliverFromWire(
            std::move(neighbor_frames_[next_neighbor++]));
      }
      now_ += kCyclesPerStep;
      {
        ScopedSpan span(tracer_, span_clock_);
        device_->AdvanceClockTo(now_);
      }
      {
        ScopedSpan span(tracer_, span_harvest_);
        for (Tenant* t : {&fw_, &nat_}) {
          while (front_end_.Harvest(t->vf).ok()) {
          }
        }
      }
      Serve(fw_, 0, UINT32_MAX);
      Tick();
      Serve(dpi_, 1, UINT32_MAX);
      Tick();
      Serve(mon_, 2, UINT32_MAX);
      Serve(nat_, 3, kNeighborServicePerStep);
      for (;;) {
        ScopedSpan span(tracer_, span_transmit_);
        auto out = device_->TransmitToWire();
        if (!out.ok()) {
          break;
        }
        egress_.push_back(std::move(out).value());
      }
    }
  }

  bool CheckOp(uint64_t op, std::string* why) override {
    // Replay the op's inputs through the standalone NFs: the chain tenant's
    // admitted frames through FW -> DPI -> Monitor, and the frames the NAT
    // forwarded (named by their pool index) through the reference NAT.
    scenario::Fnv chain_device, chain_reference, nat_device, nat_reference;
    uint64_t chain_out = 0, chain_expected = 0, nat_out = 0;
    for (const net::Packet& packet : egress_) {
      const uint16_t port = DstPortOf(packet);
      if (port == kChainPort) {
        chain_device.Mix(packet.bytes().data(), packet.size());
        ++chain_out;
      } else if (port == kNeighborPort) {
        nat_device.Mix(packet.bytes().data(), packet.size());
        ++nat_out;
        const uint32_t index = PoolIndexOf(packet);
        if (index >= neighbor_pool_.size()) {
          *why = "neighbour egress frame without a pool index";
          return false;
        }
        net::Packet input = neighbor_pool_[index];
        if (reference_nfs_[3]->Process(input) == nf::Verdict::kForward) {
          nat_reference.Mix(input.bytes().data(), input.size());
        }
      } else {
        *why = "egress frame for an unknown port";
        return false;
      }
    }
    const uint64_t base = (first_op_ + op) * kStepsPerOp * kChainFramesPerStep;
    for (uint32_t i : chain_admitted_) {
      net::Packet packet = chain_pool_[(base + i) % chain_pool_.size()];
      bool forward = true;
      for (size_t k = 0; k < 3 && forward; ++k) {
        forward = reference_nfs_[k]->Process(packet) == nf::Verdict::kForward;
      }
      if (forward) {
        chain_reference.Mix(packet.bytes().data(), packet.size());
        ++chain_expected;
      }
    }

    const Stats now = Snapshot();
    if (op >= 1 && op <= FixedOps()) {
      fixed_.offered += uint64_t{kStepsPerOp} *
                        (kChainFramesPerStep + kNeighborFramesPerStep);
      fixed_.neighbor_offered +=
          uint64_t{kStepsPerOp} * kNeighborFramesPerStep;
      fixed_.admission_rejects +=
          now.admission_rejects - stats_before_.admission_rejects;
      fixed_.queue_drops += now.queue_drops - stats_before_.queue_drops;
      fixed_.deadline_sheds += now.deadline_sheds - stats_before_.deadline_sheds;
      fixed_.chain_stalls += now.chain_stalls - stats_before_.chain_stalls;
      fixed_.transmitted += egress_.size();
      fixed_.chain_out += chain_out;
      fixed_.chain_expected += chain_expected;
      fixed_.neighbor_out += nat_out;
    }
    if (chain_admitted_.size() !=
        uint64_t{kStepsPerOp} * kChainFramesPerStep) {
      *why = "chain tenant frames refused under its capacity";
      return false;
    }
    if (chain_device.h != chain_reference.h || chain_out != chain_expected) {
      *why = "chain egress differs from the standalone FW -> DPI -> Monitor";
      return false;
    }
    if (nat_device.h != nat_reference.h) {
      *why = "neighbour egress differs from the standalone NAT";
      return false;
    }
    return true;
  }

  void LayerMetrics(const SpanTable& spans, uint64_t /*traced_ops*/,
                    Metrics* out) override {
    const auto per_call = [&](const std::string& name) {
      const auto it = spans.find(name);
      return it == spans.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_ns / static_cast<double>(it->second.count);
    };
    for (const auto& [metric, span] :
         std::vector<std::pair<std::string, std::string>>{
             {"core.deliver_chain_ns_per_frame", "core.deliver_chain"},
             {"core.deliver_neighbor_ns_per_frame", "core.deliver_neighbor"},
             {"core.nf_receive_ns_per_frame", "core.nf_receive"},
             {"core.nf_send_ns_per_frame", "core.nf_send"},
             {"core.transmit_ns_per_frame", "core.transmit"},
             {"core.chain_tick_ns", "core.chain_tick"},
             {"core.clock_ns", "core.clock"},
             {"vnic.post_ns", "vnic.post"},
             {"vnic.harvest_ns", "vnic.harvest"},
             {"nf.fw_ns_per_frame", "nf.fw"},
             {"nf.dpi_ns_per_frame", "nf.dpi"},
             {"nf.monitor_ns_per_frame", "nf.monitor"},
             {"nf.nat_ns_per_frame", "nf.nat"}}) {
      out->push_back({metric, per_call(span), "ns"});
    }
    const double fixed = static_cast<double>(FixedOps());
    const auto per_op = [&](uint64_t count) {
      return static_cast<double>(count) / fixed;
    };
    out->push_back({"core.frames_offered", per_op(fixed_.offered), "count/op"});
    out->push_back({"core.admission_rejects", per_op(fixed_.admission_rejects),
                    "count/op"});
    out->push_back({"core.queue_drops", per_op(fixed_.queue_drops),
                    "count/op"});
    out->push_back({"core.deadline_sheds", per_op(fixed_.deadline_sheds),
                    "count/op"});
    out->push_back({"core.chain_stalls", per_op(fixed_.chain_stalls),
                    "count/op"});
    out->push_back({"core.frames_transmitted", per_op(fixed_.transmitted),
                    "count/op"});
    out->push_back({"core.chain_frames_expected",
                    per_op(fixed_.chain_expected), "count/op"});
    out->push_back({"core.chain_goodput_ratio",
                    fixed_.chain_expected == 0
                        ? 0.0
                        : static_cast<double>(fixed_.chain_out) /
                              static_cast<double>(fixed_.chain_expected),
                    "ratio"});
    out->push_back({"core.neighbor_frames_offered",
                    per_op(fixed_.neighbor_offered), "count/op"});
    out->push_back({"core.neighbor_goodput_ratio",
                    fixed_.neighbor_offered == 0
                        ? 0.0
                        : static_cast<double>(fixed_.neighbor_out) /
                              static_cast<double>(fixed_.neighbor_offered),
                    "ratio"});
  }

 private:
  struct Stats {
    uint64_t admission_rejects = 0;
    uint64_t queue_drops = 0;
    uint64_t deadline_sheds = 0;
    uint64_t chain_stalls = 0;
  };
  struct Totals {
    uint64_t offered = 0, neighbor_offered = 0, admission_rejects = 0,
             queue_drops = 0, deadline_sheds = 0, chain_stalls = 0,
             transmitted = 0, chain_out = 0, chain_expected = 0,
             neighbor_out = 0;
  };

  uint64_t Launch(const char* name, uint16_t port,
                  const core::OverloadPolicy& policy) {
    mgmt::FunctionImage image;
    image.name = name;
    image.code_and_data.assign(4096, 0x5a);
    image.memory_bytes = 8ull << 20;
    image.overload = policy;
    net::SwitchRule rule;
    rule.dst_port = port;
    image.switch_rules.push_back(rule);
    return nic_os_->NfCreate(image).value();
  }

  // Drains up to `budget` frames of the tenant's RX through its NF.
  void Serve(const Tenant& tenant, size_t nf, uint32_t budget) {
    for (uint32_t served = 0; served < budget; ++served) {
      Result<net::Packet> received = net::Packet();
      {
        ScopedSpan span(tracer_, span_receive_);
        received = device_->NfReceive(tenant.nf_id);
      }
      if (!received.ok()) {
        return;
      }
      net::Packet packet = std::move(received).value();
      nf::Verdict verdict;
      {
        ScopedSpan span(tracer_, span_nf_[nf]);
        verdict = device_nfs_[nf]->Process(packet);
      }
      if (verdict == nf::Verdict::kForward) {
        ScopedSpan span(tracer_, span_send_);
        (void)device_->NfSend(tenant.nf_id, std::move(packet));
      }
    }
  }

  void Tick() {
    ScopedSpan span(tracer_, span_tick_);
    chains_->TickAll();
  }

  Stats Snapshot() {
    Stats stats;
    const core::VppStats& nat = device_->Vpp(nat_.nf_id)->stats();
    stats.admission_rejects = nat.rx_dropped_admission;
    stats.queue_drops = nat.rx_dropped_full + nat.rx_dropped_early;
    stats.deadline_sheds = nat.rx_shed_deadline + nat.tx_shed_deadline;
    for (size_t i = 0; i < chains_->link_count(); ++i) {
      stats.chain_stalls += chains_->link(i).stats().frames_stalled;
    }
    return stats;
  }

  Tracer& tracer_;
  uint32_t span_post_, span_harvest_, span_deliver_chain_,
      span_deliver_neighbor_, span_clock_, span_receive_, span_send_,
      span_tick_, span_transmit_;
  std::array<uint32_t, 4> span_nf_;
  core::vnic::PfVfManager front_end_;  // outlives the device attached to it
  std::unique_ptr<crypto::VendorAuthority> vendor_;
  std::unique_ptr<core::SnicDevice> device_;
  std::unique_ptr<mgmt::NicOs> nic_os_;
  std::unique_ptr<core::ChainManager> chains_;
  Tenant fw_, dpi_, mon_, nat_;
  std::array<std::unique_ptr<nf::NetworkFunction>, 4> device_nfs_;
  std::array<std::unique_ptr<nf::NetworkFunction>, 4> reference_nfs_;
  std::vector<net::Packet> chain_pool_, neighbor_pool_;
  std::vector<net::Packet> chain_frames_, neighbor_frames_;
  std::vector<net::Packet> egress_;
  std::vector<uint32_t> chain_admitted_;
  uint64_t first_op_ = 0;
  uint64_t now_ = 0;
  Stats stats_before_;
  Totals fixed_;
};

}  // namespace

std::unique_ptr<Workload> MakeDatapathChain(const WorkloadArgs& args) {
  return std::make_unique<DatapathChain>(args);
}

}  // namespace perfbench
