#include "src/sim/tlb.h"

namespace snic::sim {
namespace {

bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

Status LockedTlb::Install(const TlbEntry& entry) {
  if (locked_) {
    return FailedPrecondition("TLB is locked");
  }
  if (entries_.size() >= max_entries_) {
    return ResourceExhausted("TLB capacity exceeded");
  }
  if (!IsPowerOfTwo(entry.page_bytes)) {
    return InvalidArgument("page size must be a power of two");
  }
  if (entry.virt_base % entry.page_bytes != 0 ||
      entry.phys_base % entry.page_bytes != 0) {
    return InvalidArgument("entry bases must be page-aligned");
  }
  // Reject overlap with an existing virtual range: hardware TLBs with two
  // matching entries are undefined; we make it an install-time error.
  for (const TlbEntry& e : entries_) {
    const uint64_t a0 = entry.virt_base;
    const uint64_t a1 = entry.virt_base + entry.page_bytes;
    const uint64_t b0 = e.virt_base;
    const uint64_t b1 = e.virt_base + e.page_bytes;
    if (a0 < b1 && b0 < a1) {
      return InvalidArgument("virtual range overlaps an installed entry");
    }
  }
  entries_.push_back(entry);
  if (obs_installs_ != nullptr) obs_installs_->Inc();
  return OkStatus();
}

std::optional<Translation> LockedTlb::Translate(uint64_t virt_addr) const {
  if (obs_translations_ != nullptr) obs_translations_->Inc();
  for (const TlbEntry& e : entries_) {
    if (virt_addr >= e.virt_base && virt_addr < e.virt_base + e.page_bytes) {
      return Translation{e.phys_base + (virt_addr - e.virt_base), e.writable};
    }
  }
  if (obs_misses_ != nullptr) obs_misses_->Inc();
  return std::nullopt;
}

void LockedTlb::AttachObs(obs::MetricRegistry* registry,
                          const obs::Labels& labels) {
  obs_registry_ = registry;
  obs_translations_ = &registry->GetCounter("sim.tlb.translations", labels);
  obs_misses_ = &registry->GetCounter("sim.tlb.misses", labels);
  obs_installs_ = &registry->GetCounter("sim.tlb.installs", labels);
  obs_locks_ = &registry->GetCounter("sim.tlb.locks", labels);
}

void LockedTlb::DetachObs() {
  if (obs_registry_ == nullptr) {
    return;
  }
  obs_registry_->Release(
      {obs_translations_, obs_misses_, obs_installs_, obs_locks_});
  obs_registry_ = nullptr;
  obs_translations_ = nullptr;
  obs_misses_ = nullptr;
  obs_installs_ = nullptr;
  obs_locks_ = nullptr;
}

void LockedTlb::Reset() {
  entries_.clear();
  locked_ = false;
}

uint64_t LockedTlb::MappedBytes() const {
  uint64_t total = 0;
  for (const TlbEntry& e : entries_) {
    total += e.page_bytes;
  }
  return total;
}

}  // namespace snic::sim
