// Machine-state (de)serialization: BootState and Checkpoint to/from the
// shared binary layout (support/serial.h).
//
// This is the substrate of the golden-bundle file format (serve/bundle):
// a workload's post-boot state and checkpoint ladder are serialized once
// by the campaign controller, and every worker process reconstructs
// them *by reference* — read_boot_state/read_checkpoint build
// ChunkedSnapshots whose payloads point straight into the caller's
// buffer (an mmap'd bundle file), so N workers restoring from one
// bundle share the bytes through the page cache instead of holding N
// private copies of a multi-megabyte RAM image.  The caller owns the
// buffer's lifetime.
//
// Round-trip fidelity is bit-exact: a machine that adopt_boot()s a
// deserialized BootState is indistinguishable (state_digest and all)
// from one that adopted the original, and a deserialized rung passes
// restore_checkpoint()'s base assertions against the deserialized boot.
#pragma once

#include <memory>

#include "machine/machine.h"
#include "support/serial.h"

namespace kfi::machine {

// Serializes `boot` (registers, console, cycle counter, and the full
// RAM/disk snapshots with their capture versions).
void write_boot_state(ByteWriter& writer, const BootState& boot);

// Reads a BootState written by write_boot_state.  The RAM/disk payloads
// alias `reader`'s buffer (zero-copy; the buffer must outlive the
// returned state).  Returns nullptr on a short or corrupt buffer.
std::shared_ptr<BootState> read_boot_state(ByteReader& reader);

// Serializes one checkpoint-ladder rung (its RAM/disk deltas store only
// the chunks that differ from the BootState they were captured against).
void write_checkpoint(ByteWriter& writer, const Checkpoint& checkpoint);

// Reads a rung written by write_checkpoint, re-basing its deltas on
// `boot` — which must be the deserialized twin of the BootState the
// rung was captured against, and must outlive the result.  Payloads
// alias `reader`'s buffer as in read_boot_state.  `ok` is set false on
// a short or corrupt buffer.
Checkpoint read_checkpoint(ByteReader& reader, const BootState& boot,
                           bool& ok);

}  // namespace kfi::machine
