#include "src/accel/accelerator.h"

#include <algorithm>

#include "src/common/units.h"
#include "src/fault/fault.h"

namespace snic::accel {

std::string_view AcceleratorTypeName(AcceleratorType type) {
  switch (type) {
    case AcceleratorType::kDpi:
      return "DPI";
    case AcceleratorType::kZip:
      return "ZIP";
    case AcceleratorType::kRaid:
      return "RAID";
  }
  return "UNKNOWN";
}

uint64_t AcceleratorMemoryProfile::TotalBytes() const {
  uint64_t total = 0;
  for (const MemoryRegion& r : regions) {
    total += r.bytes;
  }
  return total;
}

AcceleratorMemoryProfile AcceleratorMemoryProfile::Dpi(
    uint64_t dpi_graph_bytes) {
  return AcceleratorMemoryProfile{
      AcceleratorType::kDpi,
      {
          {"IQ", KiB(256)},
          {"PktDB", KiB(128)},
          {"PktB", MiB(2)},
          {"ResB", MiB(2)},
          {"ParaB", KiB(256)},
          {"Graph", dpi_graph_bytes},
      }};
}

AcceleratorMemoryProfile AcceleratorMemoryProfile::Zip() {
  return AcceleratorMemoryProfile{
      AcceleratorType::kZip,
      {
          {"IQ", KiB(64)},
          {"PktDB", KiB(128)},
          {"PktB", MiB(2)},
          {"ResB", KiB(24)},
          {"OutB", MiB(2)},
          {"SGP", MiB(128)},
          {"Dict", KiB(32)},
      }};
}

AcceleratorMemoryProfile AcceleratorMemoryProfile::Raid() {
  return AcceleratorMemoryProfile{
      AcceleratorType::kRaid,
      {
          {"IQ", MiB(4)},
          {"PktDB", KiB(128)},
          {"PktB", MiB(2)},
          {"OutB", MiB(2)},
      }};
}

VirtualAcceleratorPool::VirtualAcceleratorPool(
    std::vector<ClusterConfig> configs) {
  for (const ClusterConfig& config : configs) {
    SNIC_CHECK(config.threads_per_cluster > 0);
    SNIC_CHECK(config.total_threads % config.threads_per_cluster == 0);
    TypeState state;
    state.config = config;
    const uint32_t n = config.NumClusters();
    state.clusters.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      state.clusters.emplace_back(config.tlb_entries_per_cluster);
    }
    types_.push_back(std::move(state));
  }
}

const VirtualAcceleratorPool::TypeState& VirtualAcceleratorPool::StateFor(
    AcceleratorType type) const {
  for (const TypeState& s : types_) {
    if (s.config.type == type) {
      return s;
    }
  }
  SNIC_CHECK(false && "accelerator type not configured");
  return types_.front();
}

VirtualAcceleratorPool::TypeState& VirtualAcceleratorPool::StateFor(
    AcceleratorType type) {
  return const_cast<TypeState&>(
      static_cast<const VirtualAcceleratorPool*>(this)->StateFor(type));
}

Result<std::vector<uint32_t>> VirtualAcceleratorPool::Allocate(
    AcceleratorType type, uint32_t count, uint64_t nf_id) {
  TypeState& state = StateFor(type);
  std::vector<uint32_t> free_clusters;
  for (uint32_t i = 0; i < state.clusters.size(); ++i) {
    if (!state.clusters[i].owner.has_value()) {
      free_clusters.push_back(i);
      if (free_clusters.size() == count) {
        break;
      }
    }
  }
  if (free_clusters.size() < count) {
    return ResourceExhausted(std::string(AcceleratorTypeName(type)) +
                             " clusters unavailable");
  }
  for (uint32_t idx : free_clusters) {
    state.clusters[idx].owner = nf_id;
  }
  return free_clusters;
}

void VirtualAcceleratorPool::ReleaseAll(uint64_t nf_id) {
  for (TypeState& state : types_) {
    for (Cluster& cluster : state.clusters) {
      if (cluster.owner == nf_id) {
        cluster.owner.reset();
        cluster.tlb.Reset();
      }
    }
  }
}

std::optional<uint64_t> VirtualAcceleratorPool::Owner(AcceleratorType type,
                                                      uint32_t cluster) const {
  const TypeState& state = StateFor(type);
  SNIC_CHECK(cluster < state.clusters.size());
  return state.clusters[cluster].owner;
}

sim::LockedTlb& VirtualAcceleratorPool::ClusterTlb(AcceleratorType type,
                                                   uint32_t cluster) {
  TypeState& state = StateFor(type);
  SNIC_CHECK(cluster < state.clusters.size());
  return state.clusters[cluster].tlb;
}

Result<uint64_t> VirtualAcceleratorPool::ThreadAccess(AcceleratorType type,
                                                      uint32_t cluster,
                                                      uint64_t virt_addr,
                                                      bool is_write) const {
  const TypeState& state = StateFor(type);
  SNIC_CHECK(cluster < state.clusters.size());
  const Cluster& c = state.clusters[cluster];
  if (!c.owner.has_value()) {
    return PermissionDenied("cluster is not bound to a function");
  }
  if (SNIC_FAULT_FIRES(fault::sites::kAccelThreadAccess, *c.owner)) {
    return Unavailable("injected transient accelerator fault");
  }
  const auto translation = c.tlb.Translate(virt_addr);
  if (!translation.has_value()) {
    return PermissionDenied("cluster TLB miss (fatal for owner)");
  }
  if (is_write && !translation->writable) {
    return PermissionDenied("write to read-only accelerator mapping");
  }
  return translation->phys_addr;
}

uint32_t VirtualAcceleratorPool::NumClusters(AcceleratorType type) const {
  return static_cast<uint32_t>(StateFor(type).clusters.size());
}

uint32_t VirtualAcceleratorPool::FreeClusters(AcceleratorType type) const {
  const TypeState& state = StateFor(type);
  uint32_t free_count = 0;
  for (const Cluster& c : state.clusters) {
    if (!c.owner.has_value()) {
      ++free_count;
    }
  }
  return free_count;
}

double DpiTimingModel::AccelPps(uint32_t threads, size_t frame_bytes) const {
  const double cycles =
      setup_cycles + cycles_per_byte * static_cast<double>(frame_bytes);
  const double per_thread = thread_ghz * 1e9 / cycles;
  return per_thread * threads;
}

double DpiTimingModel::FeedPps(size_t frame_bytes) const {
  const double cycles = feed_base_cycles +
                        feed_cycles_per_byte * static_cast<double>(frame_bytes);
  return core_ghz * 1e9 / cycles * feed_cores;
}

double DpiTimingModel::ThroughputMpps(uint32_t threads,
                                      size_t frame_bytes) const {
  return std::min(AccelPps(threads, frame_bytes), FeedPps(frame_bytes)) / 1e6;
}

}  // namespace snic::accel
