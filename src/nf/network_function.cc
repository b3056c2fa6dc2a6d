#include "src/nf/network_function.h"

#include <utility>

#include "src/common/units.h"

namespace snic::nf {

NetworkFunction::NetworkFunction(std::string name)
    : name_(std::move(name)), arena_(name_) {
  obs::MetricRegistry& registry = obs::DefaultRegistry();
  obs::Labels labels;
  labels.emplace_back("nf", name_);
  obs_packets_ = &registry.GetCounter("nf.packets", labels);
  obs_forwarded_ = &registry.GetCounter("nf.forwarded", labels);
  obs_dropped_ = &registry.GetCounter("nf.dropped", labels);
  obs_bytes_ = &registry.GetCounter("nf.bytes", labels);
  obs_flow_entries_ = &registry.GetGauge("nf.flow_entries", labels);
}

Verdict NetworkFunction::Process(net::Packet& packet) {
  recorder_.Compute(kPerPacketOverheadInstructions);
  // Reading the packet header from NF RAM: the input module deposited the
  // frame at a per-packet buffer address. Fresh DMA data is a compulsory
  // fetch; stream it past the caches.
  recorder_.LoadUncached(kPacketBufferBase +
                         (counters_.packets % kPacketRing) * 2048);
  const Verdict verdict = HandlePacket(packet);
  ++counters_.packets;
  counters_.bytes += packet.size();
  if (verdict == Verdict::kForward) {
    ++counters_.forwarded;
  } else {
    ++counters_.dropped;
  }
  obs_packets_->Inc();
  obs_bytes_->Inc(packet.size());
  (verdict == Verdict::kForward ? obs_forwarded_ : obs_dropped_)->Inc();
  if (counters_.packets % kFlowGaugePeriod == 0) {
    obs_flow_entries_->Set(static_cast<double>(FlowTableEntries()));
  }
  return verdict;
}

void NetworkFunction::ModelDpdkInit(double staging_mib) {
  const uint64_t bytes = MiBToBytes(staging_mib);
  const ArenaAllocation staging = arena_.Alloc(bytes, "dpdk-staging");
  arena_.Free(staging);
}

NfMemoryProfile NetworkFunction::Profile() const {
  NfMemoryProfile profile;
  profile.name = name_;
  profile.image = Image();
  profile.heap_stack_mib = BytesToMiB(arena_.peak_bytes());
  return profile;
}

}  // namespace snic::nf
