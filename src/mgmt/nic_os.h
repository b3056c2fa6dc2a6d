// The NIC OS management layer (§4.1, Table 1 first column).
//
// The datacenter-provided NIC OS runs on the dedicated management core. It
// stages a function's initial state into on-NIC RAM (via DMA from the host)
// and then invokes the trusted `nf_launch` instruction. After launch the OS
// cannot touch the function's resources — that is S-NIC's whole point — but
// it can still destroy functions (`NF_destroy`), which the threat model
// treats as an out-of-scope denial of service.

#ifndef SNIC_MGMT_NIC_OS_H_
#define SNIC_MGMT_NIC_OS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/accel/accelerator.h"
#include "src/common/status.h"
#include "src/core/snic_device.h"
#include "src/net/switching.h"
#include "src/obs/metrics.h"

namespace snic::mgmt {

// What a tenant uploads: initial code+data, configuration, and resource
// reservations (e.g. "three cores, 40 MB of RAM, two crypto accelerators").
struct FunctionImage {
  std::string name;
  std::vector<uint8_t> code_and_data;
  uint32_t cores = 1;
  uint64_t memory_bytes = 40ull << 20;
  std::array<uint32_t, accel::kNumAcceleratorTypes> accel_clusters = {0, 0, 0};
  std::vector<net::SwitchRule> switch_rules;
  // Overload-control policy for the function's VPP (queue bounds, drop
  // policy, admission bucket, deadline). Serialized into the config blob,
  // so the tenant's admission contract is covered by the launch measurement
  // and attestable like every other resource request.
  core::OverloadPolicy overload;

  // Canonical serialization of the configuration (covered by the launch
  // measurement so a tampered config is detectable via attestation).
  std::vector<uint8_t> SerializeConfig() const;
};

class NicOs {
 public:
  // Binds the management-plane counters (`mgmt.nf_create.ok`,
  // `mgmt.nf_create.failures`, `mgmt.nf_destroy.ok`,
  // `mgmt.nf_destroy.failures`) in obs::DefaultRegistry().
  explicit NicOs(core::SnicDevice* device);

  // NF_create: stage pages, pick cores, invoke nf_launch.
  Result<uint64_t> NfCreate(const FunctionImage& image);

  // NF_destroy: invoke nf_teardown.
  Status NfDestroy(uint64_t nf_id);

  // Management-plane physical memory access (denylist applies). Exposed so
  // the attack demos can show a *hostile* NIC OS being stopped by hardware.
  Result<uint8_t> PeekPhys(uint64_t paddr) const {
    return device_->MgmtReadPhys(paddr);
  }
  Status PokePhys(uint64_t paddr, uint8_t value) {
    return device_->MgmtWritePhys(paddr, value);
  }

  core::SnicDevice& device() { return *device_; }

 private:
  // Lowest `count` free programmable cores as a mask.
  Result<uint64_t> PickCores(uint32_t count) const;

  core::SnicDevice* device_;
  obs::Counter* obs_create_ok_;
  obs::Counter* obs_create_failures_;
  obs::Counter* obs_destroy_ok_;
  obs::Counter* obs_destroy_failures_;
};

}  // namespace snic::mgmt

#endif  // SNIC_MGMT_NIC_OS_H_
