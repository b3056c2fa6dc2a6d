// Physical on-NIC RAM model with page-granular ownership.
//
// Memory is sparse: a page stores only the prefix written since it was
// last zeroed, so the model can expose multi-GB physical address spaces
// without host RAM cost. Ownership
// (free / NIC OS / NF id) is the substrate for S-NIC's single-owner RAM
// semantics (§4.2); in commodity mode the same store is reachable from any
// core with no checks, which is precisely the LiquidIO xkphys behaviour the
// §3.3 attacks exploit.

#ifndef SNIC_CORE_PHYSICAL_MEMORY_H_
#define SNIC_CORE_PHYSICAL_MEMORY_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace snic::core {

// Page ownership marker.
inline constexpr uint64_t kPageFree = UINT64_MAX;
inline constexpr uint64_t kPageNicOs = UINT64_MAX - 1;

class PhysicalMemory {
 public:
  PhysicalMemory(uint64_t total_bytes, uint64_t page_bytes);

  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t page_bytes() const { return page_bytes_; }
  uint64_t num_pages() const { return total_bytes_ / page_bytes_; }

  // Raw access (no ownership checks: callers are the hardware paths that
  // have already passed TLB/denylist validation, or commodity-mode cores).
  void Read(uint64_t paddr, std::span<uint8_t> out) const;
  void Write(uint64_t paddr, std::span<const uint8_t> data);
  uint8_t ReadByte(uint64_t paddr) const;
  void WriteByte(uint64_t paddr, uint8_t value);

  // Read-only view of a page's written prefix where it lies, with no copy:
  // its bytes from offset 0 up to the page's written high-water mark, the
  // end of the furthest Write since the page was last zeroed. Every byte
  // past the mark reads as zero, so a page never written has an empty
  // prefix. The view is valid until the page is next written or zeroed.
  std::span<const uint8_t> WrittenPrefix(uint64_t page_index) const;

  // Zeroes a page (nf_teardown scrub) and resets its written mark to 0.
  void ZeroPage(uint64_t page_index);

  // Ownership map.
  uint64_t OwnerOf(uint64_t page_index) const;
  void SetOwner(uint64_t page_index, uint64_t owner);

  // All pages currently owned by `owner`.
  std::vector<uint64_t> PagesOwnedBy(uint64_t owner) const;

  // Finds `count` free pages and marks them owned; fails atomically.
  Result<std::vector<uint64_t>> AllocatePages(uint64_t count, uint64_t owner);

 private:
  const std::vector<uint8_t>* PageData(uint64_t page_index) const;

  uint64_t total_bytes_;
  uint64_t page_bytes_;
  std::vector<uint64_t> owners_;  // per page
  // Sparse data: each written page's written prefix, so a vector's size is
  // its page's high-water mark.
  std::unordered_map<uint64_t, std::vector<uint8_t>> pages_;
};

}  // namespace snic::core

#endif  // SNIC_CORE_PHYSICAL_MEMORY_H_
