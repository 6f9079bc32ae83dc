#include "disk/disk.h"

#include <cstring>
#include <utility>

namespace kfi::disk {

std::uint32_t DiskImage::read32(std::uint32_t byte_offset) const {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes_.data() + byte_offset, 4);
  return v;
}

void DiskImage::write32(std::uint32_t byte_offset, std::uint32_t value) {
  std::memcpy(bytes_.data() + byte_offset, &value, 4);
  ++versions_[byte_offset / kBlockSize];
}

std::uint32_t DiskDevice::mmio_read(std::uint32_t offset) {
  switch (offset) {
    case kRegBlock: return block_;
    case kRegPhys: return phys_;
    case kRegStatus: return status_;
    default: return 0;
  }
}

void DiskDevice::mmio_write(std::uint32_t offset, std::uint32_t value) {
  switch (offset) {
    case kRegBlock: block_ = value; break;
    case kRegPhys: phys_ = value; break;
    case kRegCmd: execute(value); break;
    default: break;
  }
}

void DiskDevice::execute(std::uint32_t cmd) {
  if (block_ >= image_.block_count() || !memory_.contains(phys_, kBlockSize)) {
    status_ = 1;
    return;
  }
  if (cmd == kCmdRead) {
    // Read through the const accessor: a DMA read must not mark the
    // block dirty for snapshot purposes.
    memory_.write_block(phys_, std::as_const(image_).block(block_),
                        kBlockSize);
    if (liveness_ != nullptr) liveness_->write(phys_, kBlockSize);
    ++reads_;
    status_ = 0;
  } else if (cmd == kCmdWrite) {
    memory_.read_block(phys_, image_.block(block_), kBlockSize);
    if (liveness_ != nullptr) liveness_->read(phys_, kBlockSize);
    ++writes_;
    status_ = 0;
  } else {
    status_ = 1;
  }
}

}  // namespace kfi::disk
