// Machine-state (de)serialization: BaseImage, BootState and Checkpoint
// to/from the shared binary layout (support/serial.h).
//
// This is the substrate of the golden-bundle file formats
// (serve/bundle): a campaign's base image and each workload's
// post-boot deltas and checkpoint ladder are serialized once by the
// campaign controller, and every worker process reconstructs them *by
// reference* — the readers build ChunkedSnapshots whose payloads point
// straight into the caller's buffer (an mmap'd file), so N workers
// restoring from one file share the bytes through the page cache
// instead of holding N private copies of a multi-megabyte RAM image.
// The caller owns the buffer's lifetime.
//
// Round-trip fidelity is bit-exact: a machine that adopt_boot()s a
// deserialized BootState is indistinguishable (state_digest and all)
// from one that adopted the original, and a deserialized rung passes
// restore_checkpoint()'s base assertions against the deserialized base.
#pragma once

#include <memory>

#include "machine/machine.h"
#include "support/serial.h"

namespace kfi::machine {

// Everything of a snapshot but its payload bytes, which the caller
// writes right after it: the base file writes its 20 MiB of payload
// straight from the snapshots instead of copying them into a writer.
void write_snapshot_header(ByteWriter& writer, const vm::ChunkedSnapshot& snap);

// Reads a base image: a full RAM snapshot then a full disk snapshot,
// each a write_snapshot_header followed by its payload.  The payloads
// alias `reader`'s buffer (zero-copy; the buffer must outlive the
// image, e.g. through BaseImage::keepalive).  Returns nullptr on a
// short or corrupt buffer, or on one whose geometry is not this
// machine's.
std::shared_ptr<BaseImage> read_base_image(ByteReader& reader);

// Serializes `boot` (registers, console, cycle counter, and the RAM and
// disk deltas against its base).
void write_boot_state(ByteWriter& writer, const BootState& boot);

// Reads a BootState written by write_boot_state, resolving its deltas
// through `base`, the deserialized twin of the base it was captured
// against.  Payloads alias `reader`'s buffer as in read_base_image.
// Returns nullptr on a short or corrupt buffer.
std::shared_ptr<BootState> read_boot_state(
    ByteReader& reader, std::shared_ptr<const BaseImage> base);

// Serializes one checkpoint-ladder rung (its RAM/disk deltas store only
// the chunks that differ from the base image).
void write_checkpoint(ByteWriter& writer, const Checkpoint& checkpoint);

// Reads a rung written by write_checkpoint, re-basing its deltas on
// `base`, which must outlive the result.  Payloads alias `reader`'s
// buffer as in read_base_image.  `ok` is set false on a short or
// corrupt buffer.
Checkpoint read_checkpoint(ByteReader& reader, const BaseImage& base,
                           bool& ok);

}  // namespace kfi::machine
