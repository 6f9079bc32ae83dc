// Dirty-page snapshot/restore: the version-tracked restore must be
// bit-identical to a full-image copy under arbitrary write patterns,
// including repeated restores from the same snapshot, delta snapshots
// (an ascending index list of the pages that differ) layered over a
// full base, and one immutable snapshot shared between several
// memories each holding a private equality memo (which may also
// capture deltas against it).
#include "vm/memory.h"
#include "vm/snapshot.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "support/rng.h"

namespace kfi::vm {
namespace {

constexpr std::uint32_t kPages = 64;
constexpr std::uint32_t kSize = kPages * 4096;

std::vector<std::uint8_t> contents(const PhysicalMemory& mem) {
  std::vector<std::uint8_t> out(mem.size());
  std::memcpy(out.data(), mem.raw(0), mem.size());
  return out;
}

void scribble(PhysicalMemory& mem, Rng& rng, int writes) {
  for (int i = 0; i < writes; ++i) {
    switch (rng.below(3)) {
      case 0:
        mem.write8(static_cast<std::uint32_t>(rng.below(kSize)),
                   static_cast<std::uint8_t>(rng.next_u32()));
        break;
      case 1:
        mem.write32(static_cast<std::uint32_t>(rng.below(kSize - 4)),
                    rng.next_u32());
        break;
      default: {
        const std::uint32_t len = 1 + static_cast<std::uint32_t>(rng.below(9000));
        const std::uint32_t at =
            static_cast<std::uint32_t>(rng.below(kSize - len));
        mem.fill(at, len, static_cast<std::uint8_t>(rng.next_u32()));
        break;
      }
    }
  }
}

TEST(MemorySnapshot, DirtyRestoreMatchesFullCopyUnderFuzz) {
  PhysicalMemory mem(kSize);
  Rng rng(0xD5Bu);
  scribble(mem, rng, 200);

  ChunkedSnapshot snap = mem.snapshot_pages();
  std::vector<std::uint64_t> memo = mem.page_versions();
  const std::vector<std::uint8_t> reference = contents(mem);

  // Repeated rounds against the same snapshot exercise the clean-page
  // bookkeeping (a page restored last round and untouched since must
  // not be copied again, and must still read back correctly).
  for (int round = 0; round < 20; ++round) {
    scribble(mem, rng, static_cast<int>(rng.below(40)));
    mem.restore_pages(snap, memo);
    ASSERT_EQ(contents(mem), reference) << "round " << round;
  }
}

TEST(MemorySnapshot, RepeatRestoreCopiesNothingWhenClean) {
  PhysicalMemory mem(kSize);
  Rng rng(7u);
  scribble(mem, rng, 100);

  ChunkedSnapshot snap = mem.snapshot_pages();
  std::vector<std::uint64_t> memo = mem.page_versions();
  mem.write8(0, 0xAA);
  mem.restore_pages(snap, memo);
  const std::uint64_t pages_after_first = mem.restored_pages();
  EXPECT_GE(pages_after_first, 1u);

  // No writes since the restore: every page is clean, nothing to copy.
  mem.restore_pages(snap, memo);
  EXPECT_EQ(mem.restored_pages(), pages_after_first);
}

TEST(MemorySnapshot, DeltaRestoreRebuildsCaptureState) {
  PhysicalMemory mem(kSize);
  Rng rng(0xC0FFEEu);
  scribble(mem, rng, 150);
  ChunkedSnapshot base = mem.snapshot_pages();
  std::vector<std::uint64_t> base_memo = mem.page_versions();

  scribble(mem, rng, 60);
  ChunkedSnapshot delta = mem.snapshot_delta(base, base_memo);
  std::vector<std::uint64_t> delta_memo = mem.page_versions();
  const std::vector<std::uint8_t> at_capture = contents(mem);
  // A delta stores only diverged pages, not the whole image.
  EXPECT_LT(delta.storage_bytes(), static_cast<std::uint64_t>(kSize));

  for (int round = 0; round < 10; ++round) {
    scribble(mem, rng, static_cast<int>(rng.below(50)));
    mem.restore_pages(delta, delta_memo, &base_memo);
    ASSERT_EQ(contents(mem), at_capture) << "round " << round;
  }

  // The base must still restore its own (earlier) state afterwards.
  ChunkedSnapshot verify = mem.snapshot_pages();
  mem.restore_pages(base, base_memo);
  PhysicalMemory other(kSize);
  other.restore_pages_full(verify);
  // `verify` captured the delta state; base differs from it somewhere.
  EXPECT_NE(contents(mem), contents(other));
}

TEST(MemorySnapshot, InterleavedSnapshotsStayIndependent) {
  PhysicalMemory mem(kSize);
  Rng rng(42u);
  scribble(mem, rng, 80);
  ChunkedSnapshot base = mem.snapshot_pages();
  std::vector<std::uint64_t> base_memo = mem.page_versions();
  const std::vector<std::uint8_t> base_state = contents(mem);

  scribble(mem, rng, 40);
  ChunkedSnapshot mid = mem.snapshot_delta(base, base_memo);
  std::vector<std::uint64_t> mid_memo = mem.page_versions();
  const std::vector<std::uint8_t> mid_state = contents(mem);

  for (int round = 0; round < 8; ++round) {
    scribble(mem, rng, 30);
    mem.restore_pages(mid, mid_memo, &base_memo);
    ASSERT_EQ(contents(mem), mid_state);
    scribble(mem, rng, 30);
    mem.restore_pages(base, base_memo);
    ASSERT_EQ(contents(mem), base_state);
  }
}

// The shared-cache contract: one immutable snapshot (plus a delta over
// it) serves several memories, each with its own memo.  A foreign
// memory starts from no knowledge (fresh/empty memo) and must converge
// to the identical bytes; its memo then makes repeat restores cheap,
// and interleaved restores on different memories must not interfere.
TEST(MemorySnapshot, SharedSnapshotAcrossMemoriesWithPrivateMemos) {
  PhysicalMemory capturer(kSize);
  Rng rng(0xABCDu);
  scribble(capturer, rng, 120);
  const ChunkedSnapshot base = capturer.snapshot_pages();
  std::vector<std::uint64_t> cap_base_memo = capturer.page_versions();
  const std::vector<std::uint8_t> base_state = contents(capturer);

  scribble(capturer, rng, 50);
  const ChunkedSnapshot delta = capturer.snapshot_delta(base, cap_base_memo);
  const std::vector<std::uint8_t> delta_state = contents(capturer);

  PhysicalMemory a(kSize);
  PhysicalMemory b(kSize);
  // Deliberately desynchronize the foreign memories' version counters
  // from the capturer's (the unsoundness the caller-owned memo design
  // removes: a foreign array's versions must never be compared against
  // capture-time versions).
  scribble(a, rng, 33);
  scribble(b, rng, 77);

  std::vector<std::uint64_t> a_base_memo;  // empty = no knowledge
  std::vector<std::uint64_t> b_base_memo;
  std::vector<std::uint64_t> a_delta_memo;
  std::vector<std::uint64_t> b_delta_memo;

  a.restore_pages(base, a_base_memo);
  ASSERT_EQ(contents(a), base_state);
  b.restore_pages(delta, b_delta_memo, &b_base_memo);
  // b never restored `base`, and its empty base memo must not be
  // consulted as knowledge — the delta restore has to copy base-resolved
  // chunks too.
  ASSERT_EQ(contents(b), delta_state);

  for (int round = 0; round < 6; ++round) {
    scribble(a, rng, 25);
    scribble(b, rng, 25);
    a.restore_pages(delta, a_delta_memo, &a_base_memo);
    ASSERT_EQ(contents(a), delta_state) << "round " << round;
    b.restore_pages(base, b_base_memo);
    ASSERT_EQ(contents(b), base_state) << "round " << round;
    EXPECT_TRUE(base.matches(b.raw(0), b.page_versions(), b_base_memo,
                             nullptr));
    EXPECT_TRUE(delta.matches(a.raw(0), a.page_versions(), a_delta_memo,
                              &a_base_memo));
  }

  // Clean repeat restores copy nothing, per-memory.
  const std::uint64_t a_pages = a.restored_pages();
  a.restore_pages(delta, a_delta_memo, &a_base_memo);
  EXPECT_EQ(a.restored_pages(), a_pages);

  // The capturer's own memo still works after all of that (snapshot
  // state was never mutated by the other memories' restores).
  scribble(capturer, rng, 20);
  capturer.restore_pages(base, cap_base_memo);
  ASSERT_EQ(contents(capturer), base_state);
}

// A machine that adopted a shared image captures every checkpoint
// against it with ChunkedSnapshot::delta: its page versions mean
// nothing against the capturer's, so only its own base memo may skip a
// comparison — even where a version collides with the one the capturer
// held at capture time.  A second capture through the memo the first
// one taught stores the same pages.
TEST(MemorySnapshot, SparseCaptureOnForeignMemoryTrustsOnlyItsOwnMemo) {
  PhysicalMemory capturer(kSize);
  for (int i = 0; i < 500; ++i) {
    capturer.write8(0, static_cast<std::uint8_t>(i));
  }
  const ChunkedSnapshot base = capturer.snapshot_pages();
  const std::uint64_t captured_at = capturer.page_version(0);

  PhysicalMemory foreign(kSize);
  std::vector<std::uint64_t> base_memo;
  foreign.restore_pages_full(base, &base_memo);
  // Page 0 ends at exactly the capturer's version, holding other bytes.
  while (foreign.page_version(0) + 1 < captured_at) {
    foreign.write8(1, 0x11);
  }
  foreign.write8(2, 0x5A);
  ASSERT_EQ(foreign.page_version(0), captured_at);
  foreign.write8(3 * 4096 + 7, 0x77);

  // Both captures compare the two written pages and store just them.
  const std::vector<std::uint32_t> written = {0, 3};
  std::vector<std::uint64_t> first_memo = base_memo;
  const ChunkedSnapshot first = foreign.snapshot_delta(base, first_memo);
  EXPECT_EQ(first.indices(), written);
  EXPECT_EQ(first.storage_bytes(), 2u * 4096);
  EXPECT_TRUE(first.matches(foreign.raw(0), foreign.page_versions(), {},
                            &first_memo));
  std::vector<std::uint64_t> taught_memo = first_memo;
  const ChunkedSnapshot again = ChunkedSnapshot::delta(
      foreign.raw(0), foreign.size(), foreign.page_versions(), base,
      taught_memo);
  EXPECT_EQ(again.indices(), written);
  EXPECT_EQ(again.indices(), first.indices());
  EXPECT_EQ(again.storage_bytes(), 2u * 4096);
  EXPECT_TRUE(again.matches(foreign.raw(0), foreign.page_versions(), {},
                            &base_memo));

  PhysicalMemory copy(kSize);
  std::vector<std::uint64_t> copy_memo;
  std::vector<std::uint64_t> copy_base_memo;
  copy.restore_pages(again, copy_memo, &copy_base_memo);
  EXPECT_EQ(contents(copy), contents(foreign));

  foreign.write8(5 * 4096, 0x01);
  EXPECT_FALSE(again.matches(foreign.raw(0), foreign.page_versions(), {},
                             &base_memo));
  EXPECT_FALSE(first.matches(foreign.raw(0), foreign.page_versions(), {},
                             &first_memo));
}

TEST(MemorySnapshot, FromPartsViewRestoresIdentically) {
  PhysicalMemory mem(kSize);
  Rng rng(0xBEEFu);
  scribble(mem, rng, 150);
  ChunkedSnapshot base = mem.snapshot_pages();
  std::vector<std::uint64_t> base_memo = mem.page_versions();
  const std::vector<std::uint8_t> base_state = contents(mem);
  scribble(mem, rng, 40);
  ChunkedSnapshot delta = ChunkedSnapshot::delta(
      mem.raw(0), mem.size(), mem.page_versions(), base, base_memo);
  const std::vector<std::uint8_t> delta_state = contents(mem);

  // Reassemble both snapshots from their serialized parts as zero-copy
  // views into the original payload bytes — the bundle-mmap path.
  ChunkedSnapshot base_view = ChunkedSnapshot::from_parts(
      base.chunk_size(), base.size(), nullptr, {},
      base.payload(), base.payload_size());
  EXPECT_TRUE(base_view.is_view());
  EXPECT_EQ(base_view.payload(), base.payload())
      << "a view must alias the serialized payload, not copy it";
  ChunkedSnapshot delta_view = ChunkedSnapshot::from_parts(
      delta.chunk_size(), delta.size(), &base_view,
      delta.indices(), delta.payload(), delta.payload_size());
  EXPECT_TRUE(delta_view.is_delta());
  EXPECT_EQ(delta_view.indices(), delta.indices());

  // Restores through the reassembled snapshots must land the same bytes
  // as the originals.
  {
    PhysicalMemory target(kSize);
    std::vector<std::uint64_t> memo = base_view.fresh_memo();
    target.restore_pages(base_view, memo);
    ASSERT_EQ(contents(target), base_state);
  }
  {
    PhysicalMemory target(kSize);
    std::vector<std::uint64_t> memo = delta_view.fresh_memo();
    std::vector<std::uint64_t> view_base_memo = base_view.fresh_memo();
    target.restore_pages(base_view, view_base_memo);
    target.restore_pages(delta_view, memo, &view_base_memo);
    ASSERT_EQ(contents(target), delta_state);
  }
}

}  // namespace
}  // namespace kfi::vm
