// Golden-bundle files: a campaign's base image, and for each workload
// its complete golden artifact set — GoldenRun, first-touch map,
// post-boot state, checkpoint ladder — serialized once by the campaign
// controller and adopted zero-copy by every worker process.
//
// The base image is its own sealed file (the one full RAM+disk image,
// ~20 MiB); each workload bundle holds only deltas against it, plus the
// base file's checksum trailer, and is rejected against any other base.
// The controller pays for boot + golden run + ladder capture exactly
// once per workload, writes each file sealed and crash-safely (body +
// checksum trailer, temp + fsync + atomic rename; support/fsio), and
// each worker mmaps them read-only: every load checks the seal before
// it parses a field, and the snapshot payloads become ChunkedSnapshot
// *views* into the mapping (vm/snapshot from_parts), so N workers
// restoring the same workload share one set of physical pages through
// the kernel page cache instead of holding N private copies.
// The base mapping's lifetime is carried by BaseImage::keepalive; a
// bundle mapping's by the keepalive shared_ptr that
// GoldenCache::adopt_workload() retains next to the artifact.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "inject/golden.h"

namespace kfi::serve {

// Serializes `base` — the post-boot image of `workload`, the first
// workload of a campaign's set — and writes it crash-safely to `path`,
// its payloads straight from the snapshots.  `kernel_fp` and the
// options are baked into the header as in write_bundle.  Returns the
// file's checksum trailer (the base's identity in the manifest and in
// every bundle against it), or nullopt on I/O failure.
std::optional<std::uint64_t> write_base(const std::string& path,
                                        const std::string& workload,
                                        const machine::BaseImage& base,
                                        const inject::InjectorOptions& options,
                                        std::uint64_t kernel_fp);

struct LoadedBase {
  // Its keepalive owns the mapping the snapshots view.
  std::shared_ptr<const machine::BaseImage> image;
  // The checksum trailer, verified against every other file byte.
  std::uint64_t content_hash = 0;
  std::size_t size = 0;  // file bytes, all of them checked
};

// Maps and validates the base file at `path`, with load_bundle's checks
// (seal, magic and version, workload/kernel/options, parse, and
// `expect_hash` when non-zero), plus the machine's RAM and disk
// geometry.
std::optional<LoadedBase> load_base(const std::string& path,
                                    const std::string& workload,
                                    const inject::InjectorOptions& options,
                                    std::uint64_t kernel_fp,
                                    std::uint64_t expect_hash = 0);

// Serializes `artifact` for `workload`, whose snapshots resolve
// through the base file sealed with `base_hash`, and writes it
// crash-safely to `path`.  `kernel_fp` and the ladder geometry from
// `options` are baked into the header so a stale bundle (different
// kernel build, different checkpoint count) is rejected at load
// instead of silently adopted.  Returns the bundle's checksum trailer
// (the value the manifest records), or nullopt on I/O failure.
std::optional<std::uint64_t> write_bundle(
    const std::string& path, const std::string& workload,
    const inject::WorkloadGolden& artifact,
    const inject::InjectorOptions& options, std::uint64_t kernel_fp,
    std::uint64_t base_hash);

struct LoadedBundle {
  inject::WorkloadGolden artifact;
  // Owner of the mmap the artifact's snapshots point into; hand to
  // GoldenCache::adopt_workload().
  std::shared_ptr<const void> keepalive;
  // The checksum trailer, verified against every other file byte.
  std::uint64_t content_hash = 0;
  std::size_t size = 0;  // file bytes, all of them checked
};

// Maps and validates the bundle at `path` against `base`.  Rejects a
// broken seal (any truncated or flipped byte), wrong magic or version,
// a workload/kernel/options mismatch, a bundle recorded against another
// base file, an unparseable payload, one that breaks the build's
// ordering invariants (a touch window ending before it starts, ladder
// rungs not strictly ascending past the boot cycle, a write footprint
// not strictly ascending, syscall exits out of golden order), and —
// when `expect_hash` is non-zero — a trailer that differs from it (the
// manifest's recorded hash, so a worker never adopts a bundle the
// controller didn't write).  The file is hashed exactly once.
std::optional<LoadedBundle> load_bundle(
    const std::string& path, const std::string& workload,
    const inject::InjectorOptions& options, std::uint64_t kernel_fp,
    const LoadedBase& base, std::uint64_t expect_hash = 0);

// Canonical bundle file name:
// "<dir>/bundle_<workload>_k<fp8>_c<checkpoints>_e<engine>.kfib".
// Everything the artifact bytes can depend on is in the name, so
// option changes never alias onto a stale file.
std::string bundle_path(const std::string& dir, const std::string& workload,
                        const inject::InjectorOptions& options,
                        std::uint64_t kernel_fp);

// Canonical base file name: bundle_path's with "base" for "bundle",
// `workload` naming whose post-boot image the base is.
std::string base_path(const std::string& dir, const std::string& workload,
                      const inject::InjectorOptions& options,
                      std::uint64_t kernel_fp);

}  // namespace kfi::serve
