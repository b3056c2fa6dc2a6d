// Lockable TLB model.
//
// S-NIC does not give programmable cores page tables. Instead `nf_launch`
// writes a small number of variable-page-size TLB entries that cover every
// valid mapping of the function, then sets the TLB read-only; any later TLB
// miss is a bug in the function and destroys it (§4.2). The same structure
// sits in front of accelerator clusters (§4.3), packet schedulers (§4.4),
// and DMA banks. This class is the functional model; hwmodel/ prices it.

#ifndef SNIC_SIM_TLB_H_
#define SNIC_SIM_TLB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace snic::sim {

struct TlbEntry {
  uint64_t virt_base = 0;   // page-aligned
  uint64_t phys_base = 0;   // page-aligned
  uint64_t page_bytes = 0;  // power of two
  bool writable = true;
};

// Result of a translation attempt.
struct Translation {
  uint64_t phys_addr;
  bool writable;
};

class LockedTlb {
 public:
  // max_entries: the hardware capacity (Tables 2-5 price this).
  explicit LockedTlb(size_t max_entries) : max_entries_(max_entries) {}

  // Installs an entry. Fails once locked or at capacity, or if the bases are
  // not aligned to the page size.
  Status Install(const TlbEntry& entry);

  // Locks the TLB (post-nf_launch state). Irreversible for the lifetime of
  // the owning virtual NIC; Reset() models nf_teardown.
  void Lock() {
    locked_ = true;
    if (obs_locks_ != nullptr) obs_locks_->Inc();
  }
  bool locked() const { return locked_; }

  // Translates; nullopt = TLB miss (fatal for an S-NIC function).
  std::optional<Translation> Translate(uint64_t virt_addr) const;

  // Clears all entries and unlocks (teardown path).
  void Reset();

  size_t entry_count() const { return entries_.size(); }
  size_t max_entries() const { return max_entries_; }
  const std::vector<TlbEntry>& entries() const { return entries_; }

  // Total virtual bytes mapped (the TLB "reach").
  uint64_t MappedBytes() const;

  // Registers `sim.tlb.{translations,misses,installs,locks}` counters under
  // `labels` (callers add `nf_id`/`component`). A TLB miss is fatal for an
  // S-NIC function, so the miss counter doubles as a defect detector.
  void AttachObs(obs::MetricRegistry* registry, const obs::Labels& labels);
  // Releases the counters AttachObs registered (MetricRegistry::Release),
  // for a TLB whose function is torn down; a no-op when none are attached.
  void DetachObs();

 private:
  size_t max_entries_;
  bool locked_ = false;
  std::vector<TlbEntry> entries_;
  obs::MetricRegistry* obs_registry_ = nullptr;
  obs::Counter* obs_translations_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_installs_ = nullptr;
  obs::Counter* obs_locks_ = nullptr;
};

}  // namespace snic::sim

#endif  // SNIC_SIM_TLB_H_
