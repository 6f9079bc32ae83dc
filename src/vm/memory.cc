#include "vm/memory.h"

#include <cassert>
#include <cstring>

namespace kfi::vm {

PhysicalMemory::PhysicalMemory(std::uint32_t size)
    : bytes_(size, 0), versions_((size >> 12) + 1, 0) {}

void PhysicalMemory::bump_range(std::uint32_t paddr, std::uint32_t len) {
  const std::uint32_t first = paddr >> 12;
  const std::uint32_t last = (paddr + (len ? len - 1 : 0)) >> 12;
  for (std::uint32_t page = first; page <= last; ++page) ++versions_[page];
}

void PhysicalMemory::fill(std::uint32_t paddr, std::uint32_t len,
                          std::uint8_t value) {
  assert(contains(paddr, len));
  std::memset(bytes_.data() + paddr, value, len);
  bump_range(paddr, len);
}

void PhysicalMemory::write_block(std::uint32_t paddr, const void* data,
                                 std::uint32_t len) {
  assert(contains(paddr, len));
  std::memcpy(bytes_.data() + paddr, data, len);
  bump_range(paddr, len);
}

void PhysicalMemory::read_block(std::uint32_t paddr, void* data,
                                std::uint32_t len) const {
  assert(contains(paddr, len));
  std::memcpy(data, bytes_.data() + paddr, len);
}

ChunkedSnapshot PhysicalMemory::snapshot_pages() const {
  return ChunkedSnapshot::full(bytes_.data(), bytes_.size(), 4096);
}

ChunkedSnapshot PhysicalMemory::snapshot_delta(
    const ChunkedSnapshot& base, std::vector<std::uint64_t>& base_memo) const {
  return ChunkedSnapshot::delta(bytes_.data(), bytes_.size(), versions_, base,
                                base_memo);
}

void PhysicalMemory::restore_pages(const ChunkedSnapshot& snap,
                                   std::vector<std::uint64_t>& memo,
                                   std::vector<std::uint64_t>* base_memo) {
  const std::uint32_t pages =
      snap.restore_into(bytes_.data(), versions_, memo, base_memo);
  ++restore_calls_;
  restored_pages_ += pages;
  restored_bytes_ += static_cast<std::uint64_t>(pages) * snap.chunk_size();
}

void PhysicalMemory::restore_pages_full(const ChunkedSnapshot& snap,
                                        std::vector<std::uint64_t>* memo) {
  assert(!snap.is_delta() && snap.size() == bytes_.size());
  std::memcpy(bytes_.data(), snap.chunk(0), bytes_.size());
  for (std::uint64_t& v : versions_) ++v;
  if (memo != nullptr) {
    memo->assign(versions_.begin(), versions_.begin() + snap.chunk_count());
  }
  ++restore_calls_;
  restored_pages_ += versions_.size() - 1;
  restored_bytes_ += bytes_.size();
}

}  // namespace kfi::vm
