#include "src/mgmt/nic_os.h"

#include <algorithm>

#include "src/common/units.h"

namespace snic::mgmt {

std::vector<uint8_t> FunctionImage::SerializeConfig() const {
  std::vector<uint8_t> out;
  auto push_u64 = [&out](uint64_t v) {
    for (int i = 7; i >= 0; --i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  out.insert(out.end(), name.begin(), name.end());
  out.push_back(0);
  push_u64(cores);
  push_u64(memory_bytes);
  for (uint32_t c : accel_clusters) {
    push_u64(c);
  }
  // Overload policy: every knob is measured so the admission contract the
  // tenant launched with is the one attestation vouches for.
  push_u64(overload.rx_queue_capacity_frames);
  push_u64(overload.tx_queue_capacity_frames);
  push_u64(static_cast<uint64_t>(overload.drop_policy));
  push_u64(overload.admission_burst_frames);
  push_u64(overload.admission_frames_per_refill);
  push_u64(overload.admission_refill_cycles);
  push_u64(overload.deadline_cycles);
  for (const net::SwitchRule& rule : switch_rules) {
    const std::string text = rule.ToString();
    out.insert(out.end(), text.begin(), text.end());
    out.push_back('\n');
  }
  return out;
}

Result<uint64_t> NicOs::PickCores(uint32_t count) const {
  uint64_t mask = 0;
  uint32_t found = 0;
  for (uint32_t c = 1; c < device_->config().num_cores && found < count; ++c) {
    // Probe by attempting to find unbound cores; CoresOf covers live NFs.
    bool taken = false;
    for (uint64_t id : device_->LiveNfIds()) {
      const auto cores = device_->CoresOf(id);
      if (cores.ok() && (cores.value() & (1ull << c))) {
        taken = true;
        break;
      }
    }
    if (!taken) {
      mask |= 1ull << c;
      ++found;
    }
  }
  if (found < count) {
    return ResourceExhausted("not enough free programmable cores");
  }
  return mask;
}

NicOs::NicOs(core::SnicDevice* device) : device_(device) {
  obs::MetricRegistry& registry = obs::DefaultRegistry();
  obs_create_ok_ = &registry.GetCounter("mgmt.nf_create.ok");
  obs_create_failures_ = &registry.GetCounter("mgmt.nf_create.failures");
  obs_destroy_ok_ = &registry.GetCounter("mgmt.nf_destroy.ok");
  obs_destroy_failures_ = &registry.GetCounter("mgmt.nf_destroy.failures");
}

Status NicOs::NfDestroy(uint64_t nf_id) {
  Status status = device_->NfTeardown(nf_id);
  (status.ok() ? obs_destroy_ok_ : obs_destroy_failures_)->Inc();
  return status;
}

Result<uint64_t> NicOs::NfCreate(const FunctionImage& image) {
  auto count_result = [this](bool ok) {
    (ok ? obs_create_ok_ : obs_create_failures_)->Inc();
  };
  if (image.code_and_data.empty()) {
    count_result(false);
    return InvalidArgument("function image has no code");
  }
  const uint64_t page_bytes = device_->memory().page_bytes();
  const uint64_t image_pages = CeilDiv(image.code_and_data.size(), page_bytes);
  const uint64_t total_pages = CeilDiv(image.memory_bytes, page_bytes);
  const uint64_t heap_pages =
      total_pages > image_pages ? total_pages - image_pages : 0;

  auto cores = PickCores(image.cores);
  if (!cores.ok()) {
    count_result(false);
    return cores.status();
  }

  // Stage the image into NIC-OS-owned pages (models the DMA pull from host
  // RAM described in §4.1).
  auto staged = device_->memory().AllocatePages(image_pages, core::kPageNicOs);
  if (!staged.ok()) {
    count_result(false);
    return staged.status();
  }
  size_t written = 0;
  for (uint64_t page : staged.value()) {
    const size_t chunk = static_cast<size_t>(std::min<uint64_t>(
        image.code_and_data.size() - written, page_bytes));
    device_->memory().Write(
        page * page_bytes,
        std::span<const uint8_t>(image.code_and_data.data() + written, chunk));
    written += chunk;
    if (written >= image.code_and_data.size()) {
      break;
    }
  }

  core::NfLaunchArgs args;
  args.core_mask = cores.value();
  args.image_pages = staged.value();
  args.heap_pages = heap_pages;
  args.config_blob = image.SerializeConfig();
  args.vpp.rules = image.switch_rules;
  args.vpp.overload = image.overload;
  args.accel_clusters = image.accel_clusters;

  auto launched = device_->NfLaunch(args);
  if (!launched.ok()) {
    // Launch failed: return the staged pages to the free pool.
    for (uint64_t page : staged.value()) {
      device_->memory().SetOwner(page, core::kPageFree);
    }
    count_result(false);
    return launched.status();
  }
  count_result(true);
  return launched;
}

}  // namespace snic::mgmt
