#include "src/core/denylist.h"

namespace snic::core {

BitmapDenylist::BitmapDenylist(uint64_t total_pages) {
  bits_.assign(total_pages, false);
}

void BitmapDenylist::Deny(uint64_t page_index) {
  SNIC_CHECK(page_index < bits_.size());
  if (!bits_[page_index]) {
    bits_[page_index] = true;
    ++denied_count_;
  }
}

void BitmapDenylist::Allow(uint64_t page_index) {
  SNIC_CHECK(page_index < bits_.size());
  if (bits_[page_index]) {
    bits_[page_index] = false;
    --denied_count_;
  }
}

bool BitmapDenylist::IsDenied(uint64_t page_index) const {
  SNIC_CHECK(page_index < bits_.size());
  return bits_[page_index];
}

PageTableDenylist::PageTableDenylist(uint64_t total_pages)
    : total_pages_(total_pages) {}

void PageTableDenylist::Deny(uint64_t page_index) {
  SNIC_CHECK(page_index < total_pages_);
  auto& leaf = leaves_[page_index >> kLeafBits];
  if (leaf.empty()) {
    leaf.assign(kLeafSize, false);
  }
  auto ref = leaf[page_index & (kLeafSize - 1)];
  if (!ref) {
    ref = true;
    ++denied_count_;
  }
}

void PageTableDenylist::Allow(uint64_t page_index) {
  SNIC_CHECK(page_index < total_pages_);
  const auto it = leaves_.find(page_index >> kLeafBits);
  if (it == leaves_.end()) {
    return;
  }
  auto ref = it->second[page_index & (kLeafSize - 1)];
  if (ref) {
    ref = false;
    --denied_count_;
  }
}

bool PageTableDenylist::IsDenied(uint64_t page_index) const {
  SNIC_CHECK(page_index < total_pages_);
  const auto it = leaves_.find(page_index >> kLeafBits);
  if (it == leaves_.end()) {
    return false;
  }
  return it->second[page_index & (kLeafSize - 1)];
}

uint64_t PageTableDenylist::StateBytes() const {
  // Root pointer array (one 8-byte slot per possible leaf) plus one bit per
  // entry in each populated leaf.
  const uint64_t root_slots = (total_pages_ + kLeafSize - 1) >> kLeafBits;
  return root_slots * 8 + leaves_.size() * (kLeafSize / 8);
}

}  // namespace snic::core
