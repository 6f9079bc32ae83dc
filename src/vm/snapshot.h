// Chunk-granular snapshots with version-tracked dirty restore.
//
// A ChunkedSnapshot captures a byte array (physical RAM, a disk image)
// whose writers maintain a per-chunk monotonically increasing write
// version.  restore_into() copies back only the chunks whose version
// moved since the last restore *from this snapshot into this array* —
// so the per-run "reboot" costs O(pages the run dirtied) instead of
// O(machine size).  A delta snapshot stores only the chunks that differ
// from a base full snapshot: an ascending list of their chunk indices
// and a payload packing their bytes in that order, one chunk_size slot
// each.  That one form serves every checkpoint — a post-boot state, a
// ladder rung, a shadow rung — so a ladder of mid-run checkpoints costs
// memory proportional to what the run has written so far, not K full
// RAM images, and no per-chunk table.
//
// Snapshots are immutable after capture.  The "which chunks still equal
// this snapshot" bookkeeping lives in a caller-owned memo (one
// std::vector<std::uint64_t> per (snapshot, target-array) pair), so a
// single snapshot — e.g. a golden post-boot image or a checkpoint rung
// — can be shared read-only between many machines and threads, each
// with its private memo.  memo[i] records the target's chunk version at
// the last moment chunk i was known byte-identical to this snapshot
// (kUnknownVersion = no such knowledge).
//
// Correctness rests on one invariant the writers must uphold: every
// mutation of chunk i bumps versions[i].  Versions never decrease, so
// "current version == version recorded when the content equalled this
// snapshot" implies the content still equals it, and the chunk can be
// skipped.  restore_into() itself bumps the version of every chunk it
// copies (the content changed), which also invalidates any decode-cache
// entries hanging off the old bytes.
//
// For a delta snapshot, a chunk it does not store is byte-identical to
// the base, so a memo for the *base* doubles as equality knowledge for
// that chunk: pass it as `base_memo` and restores/compares of shared
// checkpoint rungs stay O(dirty + delta) on machines that never
// captured anything.
//
// Snapshots keep no capture-time versions: a version means something
// only on the array that holds it, so all equality knowledge is a memo
// its caller keeps for its own array (the capturer's memo is its
// versions at capture time).
#pragma once

#include <cstdint>
#include <vector>

namespace kfi::vm {

// Sentinel for "no equality knowledge": write versions are counters
// starting at 0, so no chunk can ever legitimately reach this value.
inline constexpr std::uint64_t kUnknownVersion = ~0ULL;

class ChunkedSnapshot {
 public:
  ChunkedSnapshot() = default;

  // Full capture: a private copy of data[0..size).  A memo proving
  // the capturing array equal to it is that array's current versions.
  static ChunkedSnapshot full(const std::uint8_t* data, std::size_t size,
                              std::uint32_t chunk_size);

  // Delta capture against `base` (a full snapshot of an array of the
  // same geometry, which must outlive this snapshot): stores only the
  // chunks whose content differs from base, as an ascending index list
  // and a packed payload.  Only `base_memo` — the caller's memo for
  // `base` on this array — may skip a comparison; every other chunk is
  // compared byte for byte, so the capture is sound on any array,
  // whatever its version history.  Chunks found equal are recorded in
  // `base_memo` (resized to fresh_memo() first if it does not match
  // base yet).
  static ChunkedSnapshot delta(const std::uint8_t* data, std::size_t size,
                               const std::vector<std::uint64_t>& versions,
                               const ChunkedSnapshot& base,
                               std::vector<std::uint64_t>& base_memo);

  // The all-unknown memo: the first restore through it copies every
  // chunk (there is no prior equality knowledge to exploit).
  std::vector<std::uint64_t> fresh_memo() const {
    return std::vector<std::uint64_t>(chunk_count_, kUnknownVersion);
  }

  // Copies back every chunk whose version says its content may differ
  // from this snapshot, bumping the version of each restored chunk and
  // recording the new version in `memo` (resized/initialized to
  // fresh_memo() if it does not match this snapshot yet).  For delta
  // snapshots, `base_memo` (the caller's memo for the base snapshot, or
  // nullptr; resized the same way) both supplies extra skips for
  // base-resolved chunks and is kept up to date when such chunks are
  // copied.  Returns the number of chunks copied.
  std::uint32_t restore_into(std::uint8_t* data,
                             std::vector<std::uint64_t>& versions,
                             std::vector<std::uint64_t>& memo,
                             std::vector<std::uint64_t>* base_memo) const;

  // The snapshot's bytes for one chunk (resolved through the base for
  // delta snapshots).
  const std::uint8_t* chunk(std::uint32_t index) const;

  // True when data[0..size) is byte-identical to this snapshot's
  // logical content.  Chunks whose memo entry (or, for base-resolved
  // delta chunks, base_memo entry) proves equality are skipped without
  // touching their bytes; pass empty vectors/nullptr for no knowledge.
  // `masked` (a byte offset into the array, or SIZE_MAX) excludes
  // exactly one byte from the comparison — the injector's in-place bit
  // flip.
  bool matches(const std::uint8_t* data,
               const std::vector<std::uint64_t>& versions,
               const std::vector<std::uint64_t>& memo,
               const std::vector<std::uint64_t>* base_memo,
               std::size_t masked = static_cast<std::size_t>(-1)) const;

  // ---- serialization access (machine/state_io, serve/bundle) ----
  // The snapshot's stored payload: the full bytes for a full snapshot,
  // the packed differing chunks for a delta.
  const std::uint8_t* payload() const {
    return view_ != nullptr ? view_ : data_.data();
  }
  std::uint64_t payload_size() const {
    return view_ != nullptr ? view_size_ : data_.size();
  }
  // Deltas only: the stored chunks, ascending; payload slot k holds
  // chunk indices()[k].
  const std::vector<std::uint32_t>& indices() const { return index_; }

  // Reconstructs a snapshot from serialized parts.  `base` must be
  // nullptr for a full snapshot (and `index` empty); for a delta it is
  // the full snapshot the unstored chunks resolve through (and must
  // outlive the result), `index` is strictly ascending below
  // chunk_count() and the payload holds exactly index.size() chunk
  // slots — the caller validates all three.  The snapshot only *views*
  // `payload` — the zero-copy path for mmap'd golden bundles, where the
  // caller guarantees the mapping outlives every borrower.
  static ChunkedSnapshot from_parts(std::uint32_t chunk_size, std::size_t size,
                                    const ChunkedSnapshot* base,
                                    std::vector<std::uint32_t> index,
                                    const std::uint8_t* payload,
                                    std::size_t payload_size);

  bool valid() const { return chunk_size_ != 0; }
  std::uint32_t chunk_count() const { return chunk_count_; }
  std::uint32_t chunk_size() const { return chunk_size_; }
  std::size_t size() const { return size_; }
  bool is_delta() const { return base_ != nullptr; }
  // The full snapshot a delta resolves through (nullptr for full
  // snapshots).  Lets machines assert a shared checkpoint really was
  // captured against their own base image.
  const ChunkedSnapshot* base() const { return base_; }
  // Bytes of payload this snapshot itself stores (delta compression
  // measure; excludes the base).
  std::uint64_t storage_bytes() const { return payload_size(); }
  // True when the payload is a borrowed view (an mmap'd bundle) rather
  // than owned storage.
  bool is_view() const { return view_ != nullptr; }

 private:
  std::uint32_t chunk_len(std::uint32_t index) const {
    const std::size_t begin = static_cast<std::size_t>(index) * chunk_size_;
    const std::size_t left = size_ - begin;
    return left < chunk_size_ ? static_cast<std::uint32_t>(left) : chunk_size_;
  }
  // True when the chunk is proven byte-identical to this snapshot by
  // the caller's equality knowledge alone.  `stored`: this delta stores
  // the chunk (false for every chunk of a full snapshot).
  bool proven_equal(std::uint32_t index, std::uint64_t version, bool stored,
                    const std::vector<std::uint64_t>& memo,
                    const std::vector<std::uint64_t>* base_memo) const {
    if (index < memo.size() && version == memo[index]) return true;
    // A chunk the delta does not store equals the base; equality with
    // the base is equality with this snapshot.
    return base_ != nullptr && !stored && base_memo != nullptr &&
           index < base_memo->size() && version == (*base_memo)[index];
  }
  // The bytes of chunk `index`: payload slot `slot` when this delta
  // stores it, else the base's (or, for a full snapshot, its own) chunk.
  const std::uint8_t* chunk_bytes(std::uint32_t index, bool stored,
                                  std::size_t slot) const {
    if (stored) return payload() + slot * chunk_size_;
    const ChunkedSnapshot& full = base_ != nullptr ? *base_ : *this;
    return full.payload() + static_cast<std::size_t>(index) * chunk_size_;
  }

  std::uint32_t chunk_size_ = 0;
  std::uint32_t chunk_count_ = 0;
  std::size_t size_ = 0;
  const ChunkedSnapshot* base_ = nullptr;  // full snapshot deltas resolve to
  std::vector<std::uint8_t> data_;    // full bytes, or packed delta chunks
  // Borrowed payload (from_parts): data_ stays empty and every read
  // resolves through this pointer instead — the caller (a mapped
  // golden bundle) owns the bytes.
  const std::uint8_t* view_ = nullptr;
  std::size_t view_size_ = 0;
  std::vector<std::uint32_t> index_;  // delta: stored chunks, ascending
};

}  // namespace kfi::vm
