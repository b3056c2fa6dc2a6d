// Hardware memory denylist (§4.2).
//
// When `nf_launch` installs a function, the trusted hardware records the
// function's physical pages in a denylist attached to the management core.
// Any later attempt by the NIC OS to install a TLB mapping for (or directly
// touch) a denylisted physical page is rejected by hardware. Footnote 1 of
// the paper notes two implementation strategies with an area/latency trade:
// a literal bitmap (fast, more die area) or a walk of a denylist page table
// (slower, less area, EPT-style). The device uses the bitmap; both are
// implemented here behind one interface so the ablation bench can compare
// them.

#ifndef SNIC_CORE_DENYLIST_H_
#define SNIC_CORE_DENYLIST_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace snic::core {

class MemoryDenylist {
 public:
  virtual ~MemoryDenylist() = default;

  virtual void Deny(uint64_t page_index) = 0;
  virtual void Allow(uint64_t page_index) = 0;
  virtual bool IsDenied(uint64_t page_index) const = 0;

  // Modeled lookup latency in "hardware steps" (1 = single array read);
  // feeds the ablation bench.
  virtual uint32_t LookupSteps() const = 0;
  // Modeled state size in bytes for `total_pages` of coverage.
  virtual uint64_t StateBytes() const = 0;

  uint64_t denied_count() const { return denied_count_; }

 protected:
  uint64_t denied_count_ = 0;
};

// Footnote-1 option A: one bit per physical page.
class BitmapDenylist : public MemoryDenylist {
 public:
  explicit BitmapDenylist(uint64_t total_pages);

  void Deny(uint64_t page_index) override;
  void Allow(uint64_t page_index) override;
  bool IsDenied(uint64_t page_index) const override;
  uint32_t LookupSteps() const override { return 1; }
  uint64_t StateBytes() const override { return (bits_.size() + 7) / 8; }

 private:
  std::vector<bool> bits_;
};

// Footnote-1 option B: a two-level radix table walked like an EPT. Only
// populated interior nodes consume state.
class PageTableDenylist : public MemoryDenylist {
 public:
  explicit PageTableDenylist(uint64_t total_pages);

  void Deny(uint64_t page_index) override;
  void Allow(uint64_t page_index) override;
  bool IsDenied(uint64_t page_index) const override;
  uint32_t LookupSteps() const override { return 2; }
  uint64_t StateBytes() const override;

 private:
  static constexpr uint64_t kLeafBits = 9;  // 512 entries per leaf
  static constexpr uint64_t kLeafSize = 1ull << kLeafBits;

  uint64_t total_pages_;
  std::unordered_map<uint64_t, std::vector<bool>> leaves_;
};

}  // namespace snic::core

#endif  // SNIC_CORE_DENYLIST_H_
