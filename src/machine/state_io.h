// Machine-state (de)serialization: BaseImage and Checkpoint to/from the
// shared binary layout (support/serial.h).  A BootState is its base
// plus one Checkpoint, so the post-boot state and every ladder rung
// share one layout.
//
// This is the substrate of the golden-bundle file formats
// (serve/bundle): a campaign's base image and each workload's
// post-boot state and checkpoint ladder are serialized once by the
// campaign controller, and every worker process reconstructs them *by
// reference* — the readers build ChunkedSnapshots whose payloads point
// straight into the caller's buffer (an mmap'd file), so N workers
// restoring from one file share the bytes through the page cache
// instead of holding N private copies of a multi-megabyte RAM image.
// The caller owns the buffer's lifetime.
//
// Round-trip fidelity is bit-exact: a machine that adopt_boot()s a
// BootState holding a deserialized post-boot checkpoint is
// indistinguishable (state_digest and all) from one that adopted the
// original, and a deserialized checkpoint passes the machine's base
// assertions against the deserialized base.
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

// Serializes one checkpoint — a ladder rung or a post-boot state (its
// RAM/disk deltas store only the chunks that differ from the base
// image).
void write_checkpoint(ByteWriter& writer, const Checkpoint& checkpoint);

// Reads a checkpoint written by write_checkpoint, re-basing its deltas on
// `base`, which must outlive the result.  Payloads alias `reader`'s
// buffer as in read_base_image.  `ok` is set false on a short or
// corrupt buffer.
Checkpoint read_checkpoint(ByteReader& reader, const BaseImage& base,
                           bool& ok);

}  // namespace kfi::machine
