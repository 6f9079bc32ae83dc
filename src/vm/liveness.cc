#include "vm/liveness.h"

#include <cassert>
#include <stdexcept>

namespace kfi::vm {

ByteLiveness::ByteLiveness(std::uint32_t ram_size, std::size_t max_rungs)
    : max_rungs_(max_rungs),
      words_(max_rungs == 0 ? 1 : (max_rungs + 63) / 64),
      pages_((ram_size + kPageMask) / kPageSize) {
  if (max_rungs >= 0xFFFF) {
    throw std::invalid_argument("byte liveness: too many rungs");
  }
}

ByteLiveness::Page& ByteLiveness::page(std::uint32_t paddr) {
  assert((paddr >> 12) < pages_.size());
  std::unique_ptr<Page>& slot = pages_[paddr >> 12];
  if (slot == nullptr) slot = std::make_unique<Page>(words_);
  return *slot;
}

void ByteLiveness::touch(std::uint32_t paddr, std::uint32_t len, bool write) {
  while (len != 0) {
    Page& p = page(paddr);
    const std::uint32_t first = paddr & kPageMask;
    const std::uint32_t end = len < kPageSize - first ? first + len : kPageSize;
    for (std::uint32_t i = first; i != end; ++i) {
      const std::size_t from = p.decided[i];
      if (from == rungs_) continue;
      // The rungs passed since the last access are decided by this one.
      if (!write) {
        std::uint64_t* mask = &p.live[i * words_];
        for (std::size_t k = from; k < rungs_; ++k) {
          mask[k / 64] |= std::uint64_t{1} << (k % 64);
        }
      }
      p.decided[i] = static_cast<std::uint16_t>(rungs_);
    }
    paddr += end - first;
    len -= end - first;
  }
}

void ByteLiveness::store(std::uint32_t paddr, std::uint32_t len) {
  for (std::uint32_t addr = paddr; addr != paddr + len; ++addr) {
    page(addr).flags[addr & kPageMask] |= kFootprint;
  }
  touch(paddr, len, /*write=*/true);
}

void ByteLiveness::walk(std::uint32_t paddr, std::uint32_t len) {
  for (std::uint32_t addr = paddr; addr != paddr + len; ++addr) {
    page(addr).flags[addr & kPageMask] |= kWalked;
  }
  touch(paddr, len, /*write=*/false);
}

void ByteLiveness::rung() {
  assert(rungs_ < max_rungs_);
  ++rungs_;
}

std::vector<std::uint32_t> ByteLiveness::footprint() const {
  std::vector<std::uint32_t> out;
  for (std::size_t pfn = 0; pfn < pages_.size(); ++pfn) {
    if (pages_[pfn] == nullptr) continue;
    for (std::uint32_t i = 0; i < kPageSize; ++i) {
      if ((pages_[pfn]->flags[i] & kFootprint) != 0) {
        out.push_back(static_cast<std::uint32_t>(pfn) * kPageSize + i);
      }
    }
  }
  return out;
}

std::vector<std::uint32_t> ByteLiveness::pages() const {
  std::vector<std::uint32_t> out;
  for (std::size_t pfn = 0; pfn < pages_.size(); ++pfn) {
    if (pages_[pfn] != nullptr) out.push_back(static_cast<std::uint32_t>(pfn));
  }
  return out;
}

bool ByteLiveness::walked(std::uint32_t paddr) const {
  const Page* p = pages_[paddr >> 12].get();
  return p != nullptr && (p->flags[paddr & kPageMask] & kWalked) != 0;
}

bool ByteLiveness::dead(std::uint32_t paddr, std::size_t k) const {
  assert(k < rungs_);
  const Page* p = pages_[paddr >> 12].get();
  if (p == nullptr) return true;  // never accessed
  const std::uint32_t i = paddr & kPageMask;
  if (walked(paddr)) return false;
  // Rungs past the last access have no further access: dead.
  if (k >= p->decided[i]) return true;
  return (p->live[i * words_ + k / 64] >> (k % 64) & 1) == 0;
}

}  // namespace kfi::vm
