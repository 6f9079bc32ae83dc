// Physical memory with snapshot/restore.
//
// Snapshot/restore implements the per-run "reboot": the machine is
// snapshotted once after boot, and every injection run starts by
// restoring that snapshot (equivalent to the paper's reboot between
// runs, minus the wall-clock cost).  Restores are dirty-page based:
// per-page write versions (the same machinery the CPU's decode cache
// uses for invalidation) let restore() copy back only the pages the run
// actually touched, and leave the decode cache valid for every page it
// did not.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "vm/snapshot.h"

namespace kfi::vm {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::uint32_t size);

  // Per-page write generation, used by the CPU's decode cache to detect
  // self-modifying code, DMA into text, host-side bit flips, and
  // snapshot restores.  64-bit so it cannot wrap within any campaign
  // (a wrapped version could false-match a snapshot's record).
  std::uint64_t page_version(std::uint32_t paddr) const {
    return versions_[paddr >> 12];
  }

  std::uint32_t size() const { return static_cast<std::uint32_t>(bytes_.size()); }
  bool contains(std::uint32_t paddr, std::uint32_t len = 1) const {
    return paddr + len >= paddr &&
           static_cast<std::size_t>(paddr) + len <= bytes_.size();
  }

  // Unchecked fast accessors — callers must validate with contains().
  std::uint8_t read8(std::uint32_t paddr) const { return bytes_[paddr]; }
  void write8(std::uint32_t paddr, std::uint8_t v) {
    bytes_[paddr] = v;
    ++versions_[paddr >> 12];
  }
  std::uint32_t read32(std::uint32_t paddr) const {
    std::uint32_t v;
    std::memcpy(&v, bytes_.data() + paddr, 4);
    return v;
  }
  // Bumps the version of every page the word touches (two when it
  // straddles a page boundary).
  void write32(std::uint32_t paddr, std::uint32_t v) {
    std::memcpy(bytes_.data() + paddr, &v, 4);
    ++versions_[paddr >> 12];
    if (((paddr + 3) >> 12) != (paddr >> 12)) ++versions_[(paddr + 3) >> 12];
  }

  std::uint8_t* raw(std::uint32_t paddr) { return bytes_.data() + paddr; }
  const std::uint8_t* raw(std::uint32_t paddr) const {
    return bytes_.data() + paddr;
  }

  void fill(std::uint32_t paddr, std::uint32_t len, std::uint8_t value);
  void write_block(std::uint32_t paddr, const void* data, std::uint32_t len);
  void read_block(std::uint32_t paddr, void* data, std::uint32_t len) const;

  // ---- version-tracked snapshots (dirty-page restore) ----
  //
  // Snapshots are immutable; the per-(snapshot, RAM) equality memo that
  // makes restores O(dirty pages) is caller-owned — see vm/snapshot.h.
  // A memo is only meaningful for the PhysicalMemory it was built
  // against; machines sharing one snapshot each keep a private memo.

  // Full capture of RAM (a base image); page_versions() right after it
  // is this RAM's memo for it.
  ChunkedSnapshot snapshot_pages() const;
  // Delta capture of the pages that differ from `base` (every
  // checkpoint; `base` must outlive the returned snapshot).
  // `base_memo` — this RAM's memo for `base` — skips proven pages and
  // learns the ones found equal (ChunkedSnapshot::delta).
  ChunkedSnapshot snapshot_delta(const ChunkedSnapshot& base,
                                 std::vector<std::uint64_t>& base_memo) const;
  // Copies back only the pages whose write version moved since the last
  // restore of `snap` into this RAM (per `memo`); bit-identical to a
  // full copy.
  void restore_pages(const ChunkedSnapshot& snap,
                     std::vector<std::uint64_t>& memo,
                     std::vector<std::uint64_t>* base_memo = nullptr);
  // Unconditional full copy from `snap` — the pre-dirty-tracking
  // behavior, kept as the measurable baseline and as a cross-check.
  // When `memo` is given it is refreshed to prove equality with `snap`
  // at the new versions (RAM now literally is the snapshot).
  void restore_pages_full(const ChunkedSnapshot& snap,
                          std::vector<std::uint64_t>* memo = nullptr);
  // True when RAM is byte-identical to `snap`, ignoring the single byte
  // at `masked` (or nothing, if masked is out of range).  Costs
  // O(pages written since the snapshot) — see ChunkedSnapshot::matches.
  bool pages_match(const ChunkedSnapshot& snap,
                   const std::vector<std::uint64_t>& memo,
                   const std::vector<std::uint64_t>* base_memo = nullptr,
                   std::size_t masked = static_cast<std::size_t>(-1)) const {
    return snap.matches(bytes_.data(), versions_, memo, base_memo, masked);
  }
  const std::vector<std::uint64_t>& page_versions() const { return versions_; }

  // A plain copy of all of RAM (test fixtures compare against it).
  std::vector<std::uint8_t> snapshot() const { return bytes_; }

  // Cumulative restore-cost counters (perf telemetry).
  std::uint64_t restore_calls() const { return restore_calls_; }
  std::uint64_t restored_pages() const { return restored_pages_; }
  std::uint64_t restored_bytes() const { return restored_bytes_; }

 private:
  void bump_range(std::uint32_t paddr, std::uint32_t len);

  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint64_t> versions_;
  std::uint64_t restore_calls_ = 0;
  std::uint64_t restored_pages_ = 0;
  std::uint64_t restored_bytes_ = 0;
};

}  // namespace kfi::vm
