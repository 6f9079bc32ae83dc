// Simulated block device.
//
// The kernel talks to it through a 4-register MMIO port (synchronous
// DMA): the paper's testbed wrote crash dumps and file data to a real
// IDE disk; here the image is a host-side byte vector so that fsck and
// the severity analysis can inspect it after every crash.
#pragma once

#include <cstdint>
#include <vector>

#include "vm/bus.h"
#include "vm/liveness.h"
#include "vm/memory.h"
#include "vm/snapshot.h"

namespace kfi::disk {

inline constexpr std::uint32_t kBlockSize = 1024;

// MMIO register offsets (from vm::kDiskMmio).
inline constexpr std::uint32_t kRegCmd = 0;     // write 1=read, 2=write
inline constexpr std::uint32_t kRegBlock = 4;   // block number
inline constexpr std::uint32_t kRegPhys = 8;    // physical RAM address
inline constexpr std::uint32_t kRegStatus = 12; // read: 0 ok, 1 error

inline constexpr std::uint32_t kCmdRead = 1;
inline constexpr std::uint32_t kCmdWrite = 2;

class DiskImage {
 public:
  explicit DiskImage(std::uint32_t blocks)
      : bytes_(static_cast<std::size_t>(blocks) * kBlockSize, 0),
        versions_(blocks, 0) {}

  std::uint32_t block_count() const {
    return static_cast<std::uint32_t>(bytes_.size() / kBlockSize);
  }
  // The mutable accessor bumps the block's write version (dirty-block
  // restore tracking): callers take it to write.
  std::uint8_t* block(std::uint32_t n) {
    ++versions_[n];
    return bytes_.data() + n * kBlockSize;
  }
  const std::uint8_t* block(std::uint32_t n) const {
    return bytes_.data() + n * kBlockSize;
  }

  std::uint32_t read32(std::uint32_t byte_offset) const;
  void write32(std::uint32_t byte_offset, std::uint32_t value);

  // Mutable whole-image access (host-side mkfs/fsck tooling): every
  // block must be assumed written.
  std::vector<std::uint8_t>& bytes() {
    for (std::uint64_t& v : versions_) ++v;
    return bytes_;
  }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  // ---- version-tracked snapshots (dirty-block restore) ----
  //
  // Snapshots are immutable and shareable; the per-(snapshot, image)
  // equality memo is caller-owned — see vm/snapshot.h.
  vm::ChunkedSnapshot snapshot_blocks() const {
    return vm::ChunkedSnapshot::full(bytes_.data(), bytes_.size(), kBlockSize);
  }
  vm::ChunkedSnapshot snapshot_delta(
      const vm::ChunkedSnapshot& base,
      std::vector<std::uint64_t>& base_memo) const {
    return vm::ChunkedSnapshot::delta(bytes_.data(), bytes_.size(), versions_,
                                      base, base_memo);
  }
  // Copies back only blocks written since the last restore of `snap`
  // into this image (per `memo`); returns blocks copied.
  std::uint32_t restore_blocks(const vm::ChunkedSnapshot& snap,
                               std::vector<std::uint64_t>& memo,
                               std::vector<std::uint64_t>* base_memo = nullptr) {
    return snap.restore_into(bytes_.data(), versions_, memo, base_memo);
  }
  // True when the image is byte-identical to `snap`; skips blocks whose
  // write version (per `memo`/`base_memo`) proves equality.
  bool blocks_match(const vm::ChunkedSnapshot& snap,
                    const std::vector<std::uint64_t>& memo,
                    const std::vector<std::uint64_t>* base_memo = nullptr) const {
    return snap.matches(bytes_.data(), versions_, memo, base_memo);
  }
  const std::vector<std::uint64_t>& block_versions() const { return versions_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint64_t> versions_;
};

// The MMIO front-end.  Owns no storage; binds an image to guest RAM.
class DiskDevice : public vm::Device {
 public:
  DiskDevice(DiskImage& image, vm::PhysicalMemory& memory)
      : image_(image), memory_(memory) {}

  std::uint32_t mmio_read(std::uint32_t offset) override;
  void mmio_write(std::uint32_t offset, std::uint32_t value) override;

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

  // Reports every DMA transfer's RAM side to `liveness` (nullptr = off).
  void set_liveness(vm::ByteLiveness* liveness) { liveness_ = liveness; }

 private:
  void execute(std::uint32_t cmd);

  DiskImage& image_;
  vm::PhysicalMemory& memory_;
  std::uint32_t block_ = 0;
  std::uint32_t phys_ = 0;
  std::uint32_t status_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  vm::ByteLiveness* liveness_ = nullptr;
};

}  // namespace kfi::disk
