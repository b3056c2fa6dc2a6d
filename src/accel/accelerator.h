// Virtualized hardware accelerators (§4.3, Fig. 3).
//
// A physical accelerator (DPI, ZIP, RAID) owns a pool of hardware threads.
// Commodity NICs let one front-end scheduler hand any request to any thread,
// with threads enjoying unrestricted physical RAM access — so accelerator
// state has neither confidentiality nor integrity, and contention leaks
// cross-tenant activity. S-NIC statically groups threads into *clusters*,
// puts one locked TLB bank in front of each cluster, and lets `nf_launch`
// bind whole clusters to one function. Each cluster is then a virtual
// accelerator (vDPI/vZIP/vRAID) that can only touch its owner's RAM.

#ifndef SNIC_ACCEL_ACCELERATOR_H_
#define SNIC_ACCEL_ACCELERATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/sim/tlb.h"

namespace snic::accel {

enum class AcceleratorType : uint8_t {
  kDpi = 0,
  kZip = 1,
  kRaid = 2,
};
inline constexpr size_t kNumAcceleratorTypes = 3;

std::string_view AcceleratorTypeName(AcceleratorType type);

// One named memory region an accelerator must reach through its TLB bank.
struct MemoryRegion {
  std::string name;
  uint64_t bytes;
};

// The RAM working set of one accelerator instance (Table 7 of the paper:
// IQ = instruction queue, PktDB = packet descriptor buffers, PktB = packet
// buffers, ResB = result buffers, ParaB = parameter buffers, OutB = output
// buffers, SGP = scatter-gather-pointer buffers, Graph = DPI state machine,
// Dict = ZIP dictionary).
struct AcceleratorMemoryProfile {
  AcceleratorType type;
  std::vector<MemoryRegion> regions;

  uint64_t TotalBytes() const;

  // The paper's profiles (LiquidIO buffer sizes; DPI graph for the 33K-rule
  // corpus; 128 MB RAID SGP). `dpi_graph_bytes` lets callers substitute the
  // measured size of a locally built automaton.
  static AcceleratorMemoryProfile Dpi(uint64_t dpi_graph_bytes);
  static AcceleratorMemoryProfile Zip();
  static AcceleratorMemoryProfile Raid();
};

// Static cluster partitioning of one accelerator's hardware threads.
struct ClusterConfig {
  AcceleratorType type = AcceleratorType::kDpi;
  uint32_t total_threads = 64;       // the paper assumes 64 per accelerator
  uint32_t threads_per_cluster = 4;  // 16/8/4 clusters in Table 3
  size_t tlb_entries_per_cluster = 64;

  uint32_t NumClusters() const { return total_threads / threads_per_cluster; }
};

// The pool of virtualizable accelerator clusters on one S-NIC, with
// single-owner allocation enforced by trusted hardware.
class VirtualAcceleratorPool {
 public:
  explicit VirtualAcceleratorPool(std::vector<ClusterConfig> configs);

  // Allocates `count` clusters of `type` to function `nf_id`; atomically
  // fails (allocating nothing) if not enough free clusters exist.
  Result<std::vector<uint32_t>> Allocate(AcceleratorType type, uint32_t count,
                                         uint64_t nf_id);

  // Releases every cluster owned by `nf_id`, resetting the TLB banks
  // (nf_teardown path).
  void ReleaseAll(uint64_t nf_id);

  // Owner of a cluster, if any.
  std::optional<uint64_t> Owner(AcceleratorType type, uint32_t cluster) const;

  // The TLB bank in front of a cluster. nf_launch installs entries covering
  // only the owner's RAM, then locks the bank.
  sim::LockedTlb& ClusterTlb(AcceleratorType type, uint32_t cluster);

  // Hardware check a thread performs before touching RAM: translate the
  // virtual address through the cluster's bank. A miss is a fatal error for
  // the owning function (§4.3: "S-NIC treats any cluster TLB misses as
  // fatal errors").
  Result<uint64_t> ThreadAccess(AcceleratorType type, uint32_t cluster,
                                uint64_t virt_addr, bool is_write) const;

  uint32_t NumClusters(AcceleratorType type) const;
  uint32_t FreeClusters(AcceleratorType type) const;

 private:
  struct Cluster {
    sim::LockedTlb tlb;
    std::optional<uint64_t> owner;

    explicit Cluster(size_t tlb_entries) : tlb(tlb_entries) {}
  };
  struct TypeState {
    ClusterConfig config;
    std::vector<Cluster> clusters;
  };

  const TypeState& StateFor(AcceleratorType type) const;
  TypeState& StateFor(AcceleratorType type);

  std::vector<TypeState> types_;
};

// Analytic throughput model behind Fig. 8: DPI packets-per-second as a
// function of hardware-thread count and frame size. Packets are produced by
// `feed_cores` programmable cores ("randomly generated on 16 programmable
// cores without IPSec") and consumed by the cluster's threads; throughput is
// the min of the two rates.
struct DpiTimingModel {
  double thread_ghz = 1.2;
  double setup_cycles = 3000.0;       // per request: queue pop, graph root
  double cycles_per_byte = 18.0;      // graph walk incl. SRAM cache misses
  double core_ghz = 1.2;
  double feed_base_cycles = 17200.0;  // per-packet generation + enqueue cost
  double feed_cycles_per_byte = 3.0;
  uint32_t feed_cores = 16;

  double AccelPps(uint32_t threads, size_t frame_bytes) const;
  double FeedPps(size_t frame_bytes) const;
  double ThroughputMpps(uint32_t threads, size_t frame_bytes) const;
};

}  // namespace snic::accel

#endif  // SNIC_ACCEL_ACCELERATOR_H_
