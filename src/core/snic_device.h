// The S-NIC device model: trusted hardware, virtual smart NICs, and the
// commodity baseline.
//
// In `kSnic` mode the device implements the paper's design (§4): the
// privileged instructions `nf_launch` / `nf_teardown` / `nf_attest`
// (Table 1) atomically bind cores, RAM pages, accelerator clusters and a
// virtual packet pipeline to a function; memory denylists hide function
// pages from the NIC OS; per-core locked TLBs confine each function to its
// own pages; and a cumulative SHA-256 measurement supports remote
// attestation.
//
// In `kCommodity` mode the same physical substrate behaves like a LiquidIO
// in SE-S mode (§3.2): every core can read and write any physical address
// (xkphys), accelerators are shared and unvirtualized, and the bus is
// unarbitrated — the configuration against which the §3.3 attacks succeed.

#ifndef SNIC_CORE_SNIC_DEVICE_H_
#define SNIC_CORE_SNIC_DEVICE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/accel/accelerator.h"
#include "src/accel/crypto_coproc.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/attestation.h"
#include "src/core/denylist.h"
#include "src/core/physical_memory.h"
#include "src/core/tlb_sizing.h"
#include "src/core/vpp.h"
#include "src/crypto/keys.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"
#include "src/sim/tlb.h"

namespace snic::core {

namespace vnic {
class PfVfManager;
}  // namespace vnic

enum class SecurityMode : uint8_t {
  kCommodity = 0,  // LiquidIO-like: flat physical access, no virtualization
  kSnic = 1,       // the paper's design
};

struct SnicConfig {
  SecurityMode mode = SecurityMode::kSnic;
  uint32_t num_cores = 16;        // core 0 is the dedicated NIC-OS core
  uint64_t dram_bytes = 4ull << 30;
  uint64_t page_bytes = 2ull << 20;
  // Accelerator pools (defaults: 64 threads each of DPI/ZIP/RAID in
  // 4-thread clusters, i.e. 16 clusters — the Table 3 middle column).
  std::vector<accel::ClusterConfig> accel_clusters = DefaultAccelClusters();
  size_t rsa_modulus_bits = 768;  // root-of-trust key size (tests keep small)

  static std::vector<accel::ClusterConfig> DefaultAccelClusters();
};

// nf_launch arguments (Table 1: core_mask, page_table, pkt_pipeline_config,
// accel_mask).
struct NfLaunchArgs {
  uint64_t core_mask = 0;
  // The "page table": physical pages staged by the NIC OS with the
  // function's initial code, data and configuration.
  std::vector<uint64_t> image_pages;
  // Additional zero-filled heap pages to allocate and bind.
  uint64_t heap_pages = 0;
  // Configuration blob covered by the measurement (resource requests,
  // switch rules in serialized form).
  std::vector<uint8_t> config_blob;
  VppConfig vpp;
  // Requested clusters per accelerator type (DPI, ZIP, RAID).
  std::array<uint32_t, accel::kNumAcceleratorTypes> accel_clusters = {0, 0, 0};
};

// Per-launch latency breakdown (Fig. 6 series).
struct LaunchLatency {
  double tlb_setup_ms = 0.0;
  double denylist_ms = 0.0;
  double sha_digest_ms = 0.0;
  double TotalMs() const { return tlb_setup_ms + denylist_ms + sha_digest_ms; }
};
struct TeardownLatency {
  double allowlist_ms = 0.0;
  double scrub_ms = 0.0;
  double TotalMs() const { return allowlist_ms + scrub_ms; }
};

class SnicDevice {
 public:
  SnicDevice(const SnicConfig& config, const crypto::VendorAuthority& vendor);

  const SnicConfig& config() const { return config_; }

  // ---- Trusted instructions (Table 1) -----------------------------------

  // nf_launch: atomically installs a function. Fails without side effects
  // if any requested resource is unavailable or already owned.
  Result<uint64_t> NfLaunch(const NfLaunchArgs& args);

  // nf_teardown: releases every resource, scrubbing RAM, registers and
  // cache lines so nothing leaks to the next owner.
  Status NfTeardown(uint64_t nf_id);

  // nf_attest: signs the function's measurement together with the
  // Diffie-Hellman parameters supplied by the function.
  Result<AttestationQuote> NfAttest(uint64_t nf_id,
                                    const AttestationRequest& request);

  // ---- Memory access paths ----------------------------------------------

  // A function's own access through its per-core locked TLB (virtual
  // addresses start at 0). Fails on unmapped addresses (fatal TLB miss).
  Result<uint8_t> NfRead(uint64_t nf_id, uint64_t vaddr) const;
  Status NfWrite(uint64_t nf_id, uint64_t vaddr, uint8_t value);
  Status NfReadBlock(uint64_t nf_id, uint64_t vaddr,
                     std::span<uint8_t> out) const;
  Status NfWriteBlock(uint64_t nf_id, uint64_t vaddr,
                      std::span<const uint8_t> data);

  // Management-core physical access: denylist-checked in S-NIC mode.
  Result<uint8_t> MgmtReadPhys(uint64_t paddr) const;
  Status MgmtWritePhys(uint64_t paddr, uint8_t value);

  // Programmable-core physical access (xkphys). Permitted only in
  // commodity mode; S-NIC cores have no physical addressing at all.
  Result<uint8_t> CoreReadPhys(uint32_t core, uint64_t paddr) const;
  Status CoreWritePhys(uint32_t core, uint64_t paddr, uint8_t value);

  // ---- Packet paths -------------------------------------------------------

  // Packet input module: parses the frame, walks the per-NF switch rules,
  // and deposits it into the matching VPP (first match wins; unmatched
  // frames are dropped and counted). Callers must inspect the status — a
  // rejection is the overload plane shedding load, not a silent no-op.
  [[nodiscard]] Status DeliverFromWire(net::Packet packet);
  Result<net::Packet> NfReceive(uint64_t nf_id);
  [[nodiscard]] Status NfSend(uint64_t nf_id, net::Packet packet);
  // Packet output module: drains one frame to the wire (round-robin over
  // VPPs with pending TX). A VPP whose TX feeds a chain link is skipped:
  // its frames leave only through the link, so a stalled chain keeps them
  // as backpressure instead of letting them bypass the consumer.
  Result<net::Packet> TransmitToWire();
  // Marks `nf_id`'s TX as feeding (or no longer feeding) a chain link;
  // core::ChainManager keeps this in step with its links.
  Status SetTxChained(uint64_t nf_id, bool chained);

  uint64_t unmatched_rx_drops() const { return unmatched_rx_drops_; }

  // Advances the device's simulated clock and fans it out to every live
  // VPP (admission-bucket refill, deadline aging). Monotone.
  void AdvanceClockTo(uint64_t cycle);
  uint64_t now() const { return now_; }

  // ---- Introspection ------------------------------------------------------

  bool IsLive(uint64_t nf_id) const;
  std::vector<uint64_t> LiveNfIds() const;
  Result<crypto::Sha256Digest> MeasurementOf(uint64_t nf_id) const;
  Result<uint64_t> CoresOf(uint64_t nf_id) const;  // core mask
  VirtualPacketPipeline* Vpp(uint64_t nf_id);
  const LaunchLatency& last_launch_latency() const { return launch_latency_; }
  const TeardownLatency& last_teardown_latency() const {
    return teardown_latency_;
  }

  PhysicalMemory& memory() { return memory_; }
  const PhysicalMemory& memory() const { return memory_; }
  accel::VirtualAcceleratorPool& accel_pool() { return accel_pool_; }
  const crypto::NicRootOfTrust& root_of_trust() const { return root_of_trust_; }
  accel::CryptoCoprocessor& coproc() { return coproc_; }

  // Free core count (excludes the NIC-OS core in S-NIC mode).
  uint32_t FreeCores() const;

  // Attaches the SR-IOV-style vNIC front-end (src/core/vnic). Once attached,
  // DeliverFromWire routes a matched frame through the owning VF — posted
  // descriptor, completion queue, quotas — before the VPP; NFs without a VF
  // (and everything when detached) keep the direct VPP path, and the clock
  // fans out to the front-end. Not owned; pass nullptr to detach.
  void AttachVnicFrontEnd(vnic::PfVfManager* front_end);
  vnic::PfVfManager* vnic_front_end() { return vnic_front_end_; }

 private:
  struct NfRecord {
    uint64_t id;
    uint64_t core_mask;
    std::vector<uint64_t> pages;  // physical page indices, in vaddr order
    sim::LockedTlb tlb;           // per-function core TLB (shared mapping)
    std::unique_ptr<VirtualPacketPipeline> vpp;  // non-null once in nfs_
    crypto::Sha256Digest measurement;
    std::array<std::vector<uint32_t>, accel::kNumAcceleratorTypes> clusters;
    bool tx_chained = false;  // TX drains through a chain link, not the wire

    NfRecord(uint64_t nf_id, size_t tlb_entries)
        : id(nf_id), core_mask(0), tlb(tlb_entries) {}
  };

  Result<const NfRecord*> FindNf(uint64_t nf_id) const;
  Result<NfRecord*> FindNf(uint64_t nf_id);
  Status CheckLaunchArgs(const NfLaunchArgs& args) const;

  SnicConfig config_;
  PhysicalMemory memory_;
  BitmapDenylist mgmt_denylist_;
  accel::VirtualAcceleratorPool accel_pool_;
  Rng rng_;  // boot-time entropy (declared before the root of trust)
  crypto::NicRootOfTrust root_of_trust_;
  accel::CryptoCoprocessor coproc_;

  uint64_t core_allocation_mask_ = 0;  // bit set = core bound to an NF
  uint64_t next_nf_id_ = 1;
  uint64_t now_ = 0;  // simulated device clock (AdvanceClockTo)
  std::map<uint64_t, std::unique_ptr<NfRecord>> nfs_;
  uint64_t rr_tx_cursor_ = 0;
  uint64_t unmatched_rx_drops_ = 0;
  vnic::PfVfManager* vnic_front_end_ = nullptr;
  LaunchLatency launch_latency_;
  TeardownLatency teardown_latency_;

  // The trusted-instruction series, bound in obs::DefaultRegistry() at
  // construction. A launch binds its function's own series (core TLB, VPP)
  // the same way when it builds them.
  obs::Counter* obs_launches_;
  obs::Counter* obs_launch_failures_;
  obs::Counter* obs_teardowns_;
  obs::Counter* obs_attests_;
  obs::Counter* obs_denylist_rejections_;
  obs::Counter* obs_unmatched_drops_;
  obs::Gauge* obs_live_nfs_;
};

}  // namespace snic::core

#endif  // SNIC_CORE_SNIC_DEVICE_H_
