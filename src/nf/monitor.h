// Monitor NF (§5.1): per-flow packet counting.
//
// "Uses a HashMap to record the number of packets for each 5-tuple flow."
// Unlike the other NFs its memory is unbounded in the flow count, which is
// why it dominates Table 6 (361 MB peak over a five-minute CAIDA interval)
// and why Fig. 7 tracks its usage over time. The optional hugepage-init
// model reproduces the DPDK initialization spike the paper calls out
// (DPDK stages hugepage contents through a temporary normal-memory block).

#ifndef SNIC_NF_MONITOR_H_
#define SNIC_NF_MONITOR_H_

#include <cstdint>
#include <memory>

#include "src/nf/flow_hash_map.h"
#include "src/nf/network_function.h"

namespace snic::nf {

struct MonitorConfig {
  // Model DPDK hugepage initialization: a transient allocation of
  // `hugepage_pool_mib` staged through an equally sized temporary buffer.
  bool model_hugepage_init = false;
  double hugepage_pool_mib = 64.0;
};

class Monitor : public NetworkFunction {
 public:
  explicit Monitor(const MonitorConfig& config = {});

  uint64_t CountForFlow(const net::FiveTuple& tuple);
  size_t distinct_flows() const { return flows_->size(); }

  // Live heap bytes (drives the Fig. 7 series together with arena events).
  uint64_t live_bytes() const { return arena().live_bytes(); }

 protected:
  Verdict HandlePacket(net::Packet& packet) override;
  ImageSections Image() const override { return {0.85, 0.05, 2.48}; }
  uint64_t FlowTableEntries() const override {
    return flows_ == nullptr ? 0 : flows_->size();
  }

 private:
  std::unique_ptr<FlowHashMap<uint64_t>> flows_;
};

}  // namespace snic::nf

#endif  // SNIC_NF_MONITOR_H_
