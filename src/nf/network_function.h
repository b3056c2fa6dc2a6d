// The network-function interface and common machinery.
//
// All six evaluation NFs (§5.1) implement this interface. Packets arrive as
// wire-format frames (the packet input module has already copied them into
// the function's RAM); the function may rewrite bytes in place and returns a
// forwarding verdict. Each NF owns an NfArena (memory profiling) and shares
// a MemoryRecorder (timing traces).

#ifndef SNIC_NF_NETWORK_FUNCTION_H_
#define SNIC_NF_NETWORK_FUNCTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/net/packet.h"
#include "src/nf/nf_memory.h"
#include "src/obs/metrics.h"

namespace snic::nf {

enum class Verdict : uint8_t {
  kForward = 0,
  kDrop = 1,
};

struct NfCounters {
  uint64_t packets = 0;
  uint64_t forwarded = 0;
  uint64_t dropped = 0;
  uint64_t bytes = 0;
};

class NetworkFunction {
 public:
  // Binds the per-NF series (`nf.packets{nf=<name>}`, `nf.forwarded`,
  // `nf.dropped`, `nf.bytes`, `nf.flow_entries`) in obs::DefaultRegistry():
  // the global registry, or the task's shard inside a parallel sweep worker.
  explicit NetworkFunction(std::string name);
  virtual ~NetworkFunction() = default;

  NetworkFunction(const NetworkFunction&) = delete;
  NetworkFunction& operator=(const NetworkFunction&) = delete;

  const std::string& name() const { return name_; }

  // Processes one packet (may rewrite it). Wraps HandlePacket with counter
  // and per-packet framework-cost accounting.
  Verdict Process(net::Packet& packet);

  NfArena& arena() { return arena_; }
  const NfArena& arena() const { return arena_; }
  MemoryRecorder& recorder() { return recorder_; }
  const NfCounters& counters() const { return counters_; }

  // The Table 6 row: modeled image sections + measured heap/stack peak.
  NfMemoryProfile Profile() const;

 protected:
  virtual Verdict HandlePacket(net::Packet& packet) = 0;

  // Image-section model; subclasses override with their NF's constants.
  virtual ImageSections Image() const { return ImageSections{}; }

  // Models DPDK initialization: a transient allocation (packet-pool staging
  // and setup scratch) that inflates the peak an S-NIC launch must
  // preallocate without contributing to steady-state usage. The paper's
  // Appendix C attributes the LB's and Monitor's low memory-utilization
  // ratios to exactly this.
  void ModelDpdkInit(double staging_mib);

  // Live flow-table occupancy, exported as the `nf.flow_entries` gauge every
  // kFlowGaugePeriod packets. NFs without per-flow state keep the default.
  virtual uint64_t FlowTableEntries() const { return 0; }

  // Approximate per-packet framework instructions (parse, queue handling).
  static constexpr uint32_t kPerPacketOverheadInstructions = 180;
  // Modeled packet-buffer ring. Freshly DMA'd packet bytes are compulsory
  // misses on real hardware; a ring far larger than any cache reproduces
  // that in the trace regardless of partitioning policy.
  static constexpr uint64_t kPacketBufferBase = 0x40000000;
  static constexpr uint64_t kPacketRing = 32768;

  MemoryRecorder recorder_;

 private:
  static constexpr uint64_t kFlowGaugePeriod = 1024;

  std::string name_;
  NfArena arena_;
  NfCounters counters_;

  obs::Counter* obs_packets_;
  obs::Counter* obs_forwarded_;
  obs::Counter* obs_dropped_;
  obs::Counter* obs_bytes_;
  obs::Gauge* obs_flow_entries_;
};

}  // namespace snic::nf

#endif  // SNIC_NF_NETWORK_FUNCTION_H_
