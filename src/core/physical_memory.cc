#include "src/core/physical_memory.h"

#include <algorithm>
#include <cstring>

namespace snic::core {

PhysicalMemory::PhysicalMemory(uint64_t total_bytes, uint64_t page_bytes)
    : total_bytes_(total_bytes), page_bytes_(page_bytes) {
  SNIC_CHECK(page_bytes_ > 0);
  SNIC_CHECK(total_bytes_ % page_bytes_ == 0);
  owners_.assign(total_bytes_ / page_bytes_, kPageFree);
}

const std::vector<uint8_t>* PhysicalMemory::PageData(
    uint64_t page_index) const {
  const auto it = pages_.find(page_index);
  return it == pages_.end() ? nullptr : &it->second;
}

std::vector<uint8_t>& PhysicalMemory::MutablePageData(uint64_t page_index) {
  auto& page = pages_[page_index];
  if (page.empty()) {
    page.assign(page_bytes_, 0);
  }
  return page;
}

void PhysicalMemory::Read(uint64_t paddr, std::span<uint8_t> out) const {
  SNIC_CHECK(paddr + out.size() <= total_bytes_);
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t page_index = (paddr + done) / page_bytes_;
    const uint64_t offset = (paddr + done) % page_bytes_;
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(out.size() - done, page_bytes_ - offset));
    const std::vector<uint8_t>* page = PageData(page_index);
    if (page == nullptr) {
      std::memset(out.data() + done, 0, chunk);  // untouched page reads zero
    } else {
      std::memcpy(out.data() + done, page->data() + offset, chunk);
    }
    done += chunk;
  }
}

void PhysicalMemory::Write(uint64_t paddr, std::span<const uint8_t> data) {
  SNIC_CHECK(paddr + data.size() <= total_bytes_);
  size_t done = 0;
  while (done < data.size()) {
    const uint64_t page_index = (paddr + done) / page_bytes_;
    const uint64_t offset = (paddr + done) % page_bytes_;
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(data.size() - done, page_bytes_ - offset));
    std::memcpy(MutablePageData(page_index).data() + offset,
                data.data() + done, chunk);
    done += chunk;
  }
}

uint8_t PhysicalMemory::ReadByte(uint64_t paddr) const {
  uint8_t b = 0;
  Read(paddr, std::span<uint8_t>(&b, 1));
  return b;
}

void PhysicalMemory::WriteByte(uint64_t paddr, uint8_t value) {
  Write(paddr, std::span<const uint8_t>(&value, 1));
}

std::span<const uint8_t> PhysicalMemory::PageView(uint64_t page_index) const {
  SNIC_CHECK(page_index < num_pages());
  const std::vector<uint8_t>* page = PageData(page_index);
  if (page == nullptr) {
    return {};
  }
  return std::span<const uint8_t>(page->data(), page->size());
}

void PhysicalMemory::ZeroPage(uint64_t page_index) {
  SNIC_CHECK(page_index < num_pages());
  pages_.erase(page_index);  // sparse zero page
}

uint64_t PhysicalMemory::OwnerOf(uint64_t page_index) const {
  SNIC_CHECK(page_index < num_pages());
  return owners_[page_index];
}

void PhysicalMemory::SetOwner(uint64_t page_index, uint64_t owner) {
  SNIC_CHECK(page_index < num_pages());
  owners_[page_index] = owner;
}

std::vector<uint64_t> PhysicalMemory::PagesOwnedBy(uint64_t owner) const {
  std::vector<uint64_t> out;
  for (uint64_t i = 0; i < owners_.size(); ++i) {
    if (owners_[i] == owner) {
      out.push_back(i);
    }
  }
  return out;
}

Result<std::vector<uint64_t>> PhysicalMemory::AllocatePages(uint64_t count,
                                                            uint64_t owner) {
  std::vector<uint64_t> found;
  for (uint64_t i = 0; i < owners_.size() && found.size() < count; ++i) {
    if (owners_[i] == kPageFree) {
      found.push_back(i);
    }
  }
  if (found.size() < count) {
    return ResourceExhausted("not enough free physical pages");
  }
  for (uint64_t page : found) {
    owners_[page] = owner;
  }
  return found;
}

}  // namespace snic::core
