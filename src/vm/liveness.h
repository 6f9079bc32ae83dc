// Next-access liveness of physical RAM bytes at the rungs of a
// checkpoint ladder, recorded during one run (the golden capture pass,
// DESIGN.md §7 layer 3) on either engine.
//
// The run reports every RAM access through four channels — CPU data
// reads and writes (trap-frame pushes, the TSS read and iret pops
// included), instruction fetch (per executed instruction, decode-cache
// hits and trace ops included: they execute bytes without re-reading
// them), page-table walks and device DMA — and calls rung() at each
// ladder rung as it is captured.  A byte is *dead* at rung k when the
// run's next access to it at or after the rung is a write, or there is
// none: whatever value it holds there is never observed.  Bytes a page-table walk ever reads are never dead:
// a run resumed from a rung has a colder TLB than the recording run and
// may walk an entry the recording run served from its TLB.
//
// Only bytes of pages the run accesses get state, in per-page tables
// allocated on first access.  The written-data footprint (every byte a
// cpl-0 CPU store commits, campaign E's fault population) is recorded
// in the same tables.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "vm/layout.h"

namespace kfi::vm {

class ByteLiveness {
 public:
  // `ram_size` bounds every reported address; `max_rungs` bounds the
  // number of rung() calls.
  ByteLiveness(std::uint32_t ram_size, std::size_t max_rungs);

  ByteLiveness(const ByteLiveness&) = delete;
  ByteLiveness& operator=(const ByteLiveness&) = delete;

  // An access to [paddr, paddr + len), which must lie inside RAM.
  void read(std::uint32_t paddr, std::uint32_t len) {
    if (!decided(paddr, len)) touch(paddr, len, /*write=*/false);
  }
  void write(std::uint32_t paddr, std::uint32_t len) {
    if (!decided(paddr, len)) touch(paddr, len, /*write=*/true);
  }
  // A cpl-0 CPU store: a write whose bytes join the footprint.
  void kernel_store(std::uint32_t paddr, std::uint32_t len) {
    if (!decided(paddr, len, kFootprint)) store(paddr, len);
  }
  // A page-table walk reading the entry at [paddr, paddr + len).
  void walk(std::uint32_t paddr, std::uint32_t len);

  // The run passed the next ladder rung.
  void rung();

  std::size_t rungs() const { return rungs_; }

  // Footprint bytes, address-sorted.
  std::vector<std::uint32_t> footprint() const;
  // Whether the byte is dead at rung `k` (< rungs()).
  bool dead(std::uint32_t paddr, std::size_t k) const;
  // Whether a page-table walk read the byte.
  bool walked(std::uint32_t paddr) const;
  // Numbers of the pages the run accessed, ascending.
  std::vector<std::uint32_t> pages() const;

 private:
  struct Page {
    explicit Page(std::size_t words) : live(kPageSize * words) {}

    // Rungs passed at the byte's last access: every rung before that
    // is decided, every later one waits for the next access.
    std::uint16_t decided[kPageSize] = {};
    std::uint8_t flags[kPageSize] = {};
    // Per byte, one bit per decided rung whose next access was a read.
    std::vector<std::uint64_t> live;
  };

  static constexpr std::uint8_t kFootprint = 1;
  static constexpr std::uint8_t kWalked = 2;

  // True when every byte of the access, on one allocated page, was
  // already accessed since the last rung and carries `flags`: the
  // access changes nothing.  Most accesses are such repeats.
  bool decided(std::uint32_t paddr, std::uint32_t len,
               std::uint8_t flags = 0) const {
    const Page* p = pages_[paddr >> 12].get();
    const std::uint32_t first = paddr & kPageMask;
    if (p == nullptr || first + len > kPageSize) return false;
    for (std::uint32_t i = first; i != first + len; ++i) {
      if (p->decided[i] != rungs_ || (p->flags[i] & flags) != flags) {
        return false;
      }
    }
    return true;
  }

  Page& page(std::uint32_t paddr);
  // Decides the rungs passed since each byte's last access.
  void touch(std::uint32_t paddr, std::uint32_t len, bool write);
  void store(std::uint32_t paddr, std::uint32_t len);

  std::size_t max_rungs_;
  std::size_t words_;  // live-mask words per byte
  std::size_t rungs_ = 0;
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace kfi::vm
