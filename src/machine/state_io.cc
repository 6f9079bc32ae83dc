#include "machine/state_io.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "fsutil/kfs_format.h"
#include "vm/layout.h"

namespace kfi::machine {
namespace {

// `base` must be nullptr exactly when the serialized snapshot was full;
// a delta must have its base's geometry.
bool read_snapshot(ByteReader& r, const vm::ChunkedSnapshot* base,
                   vm::ChunkedSnapshot& out) {
  const std::uint32_t chunk_size = r.u32();
  const std::uint64_t size = r.u64();
  const bool is_delta = r.u8() != 0;
  const std::uint32_t chunk_count = r.u32();
  if (!r.ok() || chunk_size == 0 || is_delta != (base != nullptr)) {
    return false;
  }
  if (chunk_count != (size + chunk_size - 1) / chunk_size) return false;
  if (is_delta && (chunk_size != base->chunk_size() || size != base->size())) {
    return false;
  }

  // A delta's stored chunks: a count, then that many indices, strictly
  // ascending below chunk_count.  The count is bounded by both before
  // anything is allocated.
  std::vector<std::uint32_t> index;
  if (is_delta) {
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > chunk_count || count > r.remaining() / 4) {
      return false;
    }
    if (count > 0) {
      // The bound above guarantees the bytes are there.
      index.resize(count);
      std::memcpy(index.data(), r.bytes(count * 4ULL), count * 4ULL);
    }
    for (std::size_t i = 0; i < index.size(); ++i) {
      if (index[i] >= chunk_count || (i > 0 && index[i] <= index[i - 1])) {
        return false;
      }
    }
  }

  // The payload: the whole array, or exactly one chunk slot per stored
  // chunk.
  const std::uint64_t payload_size = r.u64();
  if (payload_size != (is_delta ? index.size() * std::uint64_t{chunk_size}
                                : size)) {
    return false;
  }
  const std::uint8_t* payload = r.bytes(payload_size);
  if (payload == nullptr) return false;
  out = vm::ChunkedSnapshot::from_parts(
      chunk_size, static_cast<std::size_t>(size), base, std::move(index),
      payload, static_cast<std::size_t>(payload_size));
  return true;
}

// One snapshot: its header, then its payload.
void write_snapshot(ByteWriter& w, const vm::ChunkedSnapshot& snap) {
  write_snapshot_header(w, snap);
  w.bytes(snap.payload(), snap.payload_size());
}

void write_regs(ByteWriter& w, const std::uint32_t (&regs)[8]) {
  for (int i = 0; i < 8; ++i) w.u32(regs[i]);
}

void read_regs(ByteReader& r, std::uint32_t (&regs)[8]) {
  for (int i = 0; i < 8; ++i) regs[i] = r.u32();
}

}  // namespace

void write_snapshot_header(ByteWriter& w, const vm::ChunkedSnapshot& snap) {
  w.u32(snap.chunk_size());
  w.u64(snap.size());
  w.u8(snap.is_delta() ? 1 : 0);
  w.u32(snap.chunk_count());
  if (snap.is_delta()) {
    const std::vector<std::uint32_t>& index = snap.indices();
    w.u32(static_cast<std::uint32_t>(index.size()));
    w.bytes(index.data(), index.size() * 4);
  }
  w.u64(snap.payload_size());
}

std::shared_ptr<BaseImage> read_base_image(ByteReader& reader) {
  auto base = std::make_shared<BaseImage>();
  if (!read_snapshot(reader, nullptr, base->mem) ||
      !read_snapshot(reader, nullptr, base->disk) || !reader.ok()) {
    return nullptr;
  }
  // Machines assert this geometry when they adopt a state on the base.
  if (base->mem.size() != vm::kRamSize ||
      base->mem.chunk_size() != vm::kPageSize ||
      base->disk.size() !=
          static_cast<std::size_t>(fsutil::kDefaultBlocks) * disk::kBlockSize ||
      base->disk.chunk_size() != disk::kBlockSize) {
    return nullptr;
  }
  return base;
}

void write_checkpoint(ByteWriter& writer, const Checkpoint& checkpoint) {
  writer.u64(checkpoint.cycle);
  write_regs(writer, checkpoint.regs);
  writer.u32(checkpoint.eip);
  writer.u32(checkpoint.flags);
  writer.u32(static_cast<std::uint32_t>(checkpoint.cpl));
  writer.u32(checkpoint.cr3);
  writer.u64(checkpoint.next_timer);
  writer.u8(checkpoint.timer_pending ? 1 : 0);
  writer.u8(checkpoint.halted ? 1 : 0);
  writer.str(checkpoint.console);
  write_snapshot(writer, checkpoint.mem);
  write_snapshot(writer, checkpoint.disk);
}

Checkpoint read_checkpoint(ByteReader& reader, const BaseImage& base,
                           bool& ok) {
  Checkpoint ck;
  ck.cycle = reader.u64();
  read_regs(reader, ck.regs);
  ck.eip = reader.u32();
  ck.flags = reader.u32();
  ck.cpl = static_cast<int>(reader.u32());
  ck.cr3 = reader.u32();
  ck.next_timer = reader.u64();
  ck.timer_pending = reader.u8() != 0;
  ck.halted = reader.u8() != 0;
  ck.console = reader.str();
  ok = read_snapshot(reader, &base.mem, ck.mem) &&
       read_snapshot(reader, &base.disk, ck.disk) && reader.ok();
  return ck;
}

}  // namespace kfi::machine
