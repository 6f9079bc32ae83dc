// Golden-bundle files: the base image and the serialized WorkloadGolden
// round-trip bit-exactly through write_base/load_base and
// write_bundle/load_bundle, stale, corrupt or out-of-order files (and
// bundles against another base) are rejected at load, and an adopted
// bundle substitutes for a locally built artifact without changing a
// single injection result.
#include "serve/bundle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "analysis/io.h"
#include "check/expectations.h"
#include "inject/golden.h"
#include "kernel/build.h"
#include "machine/state_io.h"
#include "serve/service.h"
#include "support/fsio.h"
#include "support/serial.h"
#include "temp_dir.h"
#include "workloads/workloads.h"

namespace kfi::serve {
namespace {

using test::fresh_dir;

// One golden build for the whole suite: bundle tests only need a real
// artifact to serialize, not a fresh boot per TEST.  Its post-boot
// image is the cache's base, written once as the suite's base file.
class BundleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_ = new inject::GoldenCache(options());
    kernel_fp_ = analysis::kernel_fingerprint(kernel::built_kernel());
    cache_->workload("pipe");
    base_path_ = base_path(fresh_dir("kfi_bundle_test_base"), "pipe",
                           options(), kernel_fp_);
    const auto hash = write_base(base_path_, "pipe", *cache_->base(),
                                 options(), kernel_fp_);
    ASSERT_TRUE(hash.has_value());
    auto loaded = load_base(base_path_, "pipe", options(), kernel_fp_, *hash);
    ASSERT_TRUE(loaded.has_value());
    base_ = new LoadedBase(std::move(*loaded));
  }
  static void TearDownTestSuite() {
    delete base_;
    base_ = nullptr;
    delete cache_;
    cache_ = nullptr;
  }

  static inject::InjectorOptions options() { return {}; }

  static inject::GoldenCache* cache_;
  static LoadedBase* base_;
  static std::string base_path_;
  static std::uint64_t kernel_fp_;
};

inject::GoldenCache* BundleTest::cache_ = nullptr;
LoadedBase* BundleTest::base_ = nullptr;
std::string BundleTest::base_path_;
std::uint64_t BundleTest::kernel_fp_ = 0;

// Bytes before a bundle's payload: magic, version, the workload name,
// kernel fingerprint, options echo and the base file's trailer.
std::size_t bundle_header(const std::string& workload) {
  return 8 + 4 + workload.size() + 8 + 8 + 8;
}

// Flips one bit of the file at `path` in place.
void flip_bit(const std::string& path, std::size_t bit) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  char byte = 0;
  file.seekg(static_cast<std::streamoff>(bit / 8));
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ (1 << (bit % 8)));
  file.seekp(static_cast<std::streamoff>(bit / 8));
  file.write(&byte, 1);
}

TEST_F(BundleTest, RoundTripPreservesTheWholeArtifact) {
  const inject::WorkloadGolden& original = cache_->workload("pipe");
  const std::string dir = fresh_dir("kfi_bundle_test_roundtrip");
  const std::string path = bundle_path(dir, "pipe", options(), kernel_fp_);

  const auto hash = write_bundle(path, "pipe", original, options(),
                                 kernel_fp_, base_->content_hash);
  ASSERT_TRUE(hash.has_value());

  const auto loaded =
      load_bundle(path, "pipe", options(), kernel_fp_, *base_, *hash);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->content_hash, *hash);
  ASSERT_NE(loaded->keepalive, nullptr);

  const inject::WorkloadGolden& back = loaded->artifact;
  EXPECT_EQ(back.golden.ok, original.golden.ok);
  EXPECT_EQ(back.golden.console, original.golden.console);
  EXPECT_EQ(back.golden.exit_code, original.golden.exit_code);
  EXPECT_EQ(back.golden.fs_digest, original.golden.fs_digest);
  EXPECT_EQ(back.golden.cycles, original.golden.cycles);
  EXPECT_EQ(back.golden.disk.bootable, original.golden.disk.bootable);
  EXPECT_EQ(back.golden.disk.fs_damaged, original.golden.disk.fs_damaged);
  EXPECT_EQ(back.golden.disk.fsck_unrepairable,
            original.golden.disk.fsck_unrepairable);
  EXPECT_EQ(back.golden.disk.repair_verified,
            original.golden.disk.repair_verified);
  // Equal sizes and every original key present: the same coverage.
  ASSERT_EQ(back.first_touch.size(), original.first_touch.size());
  for (const auto& [addr, window] : original.first_touch) {
    const auto it = back.first_touch.find(addr);
    ASSERT_NE(it, back.first_touch.end());
    EXPECT_EQ(it->second.first, window.first);
    EXPECT_EQ(it->second.last, window.last);
  }
  ASSERT_NE(back.boot, nullptr);
  // The deltas resolve through the mapped base file, not a copy.
  EXPECT_EQ(back.boot->base, base_->image);
  // The whole boot checkpoint, timer phase included.
  const machine::Checkpoint& boot = back.boot->state;
  const machine::Checkpoint& built = original.boot->state;
  EXPECT_EQ(boot.mem.base(), &base_->image->mem);
  EXPECT_EQ(boot.disk.base(), &base_->image->disk);
  EXPECT_EQ(boot.mem.storage_bytes(), built.mem.storage_bytes());
  EXPECT_EQ(boot.disk.storage_bytes(), built.disk.storage_bytes());
  EXPECT_EQ(boot.cycle, built.cycle);
  EXPECT_EQ(boot.eip, built.eip);
  EXPECT_EQ(boot.flags, built.flags);
  EXPECT_EQ(boot.cpl, built.cpl);
  EXPECT_EQ(boot.cr3, built.cr3);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(boot.regs[i], built.regs[i]);
  EXPECT_EQ(boot.console, built.console);
  EXPECT_EQ(boot.next_timer, built.next_timer);
  EXPECT_EQ(boot.timer_pending, built.timer_pending);
  EXPECT_EQ(boot.halted, built.halted);
  // The phase every run starts from: the next tick one period out.
  EXPECT_EQ(boot.next_timer, boot.cycle + kernel::kTimerPeriodCycles);
  EXPECT_FALSE(boot.timer_pending);
  EXPECT_FALSE(boot.halted);
  ASSERT_EQ(back.ladder.size(), original.ladder.size());
  for (std::size_t i = 0; i < back.ladder.size(); ++i) {
    EXPECT_EQ(back.ladder[i].cycle, original.ladder[i].cycle);
    EXPECT_EQ(back.ladder[i].eip, original.ladder[i].eip);
    EXPECT_EQ(back.ladder[i].mem.base(), &base_->image->mem);
  }
  // The v2 tail (campaign E/F golden inputs) and the v3 dead bits.
  EXPECT_EQ(back.write_footprint, original.write_footprint);
  ASSERT_EQ(back.syscalls.size(), original.syscalls.size());
  for (std::size_t i = 0; i < back.syscalls.size(); ++i) {
    EXPECT_EQ(back.syscalls[i].cycle, original.syscalls[i].cycle);
    EXPECT_EQ(back.syscalls[i].eax, original.syscalls[i].eax);
  }
  ASSERT_FALSE(original.dead_bits.empty());
  EXPECT_EQ(back.dead_bits, original.dead_bits);
}

TEST_F(BundleTest, EveryWorkloadsBuildKeepsTheOrderingInvariants) {
  // The loader rejects bundles whose rungs, footprint or syscall exits
  // are out of order, or whose touch windows end before they start:
  // every workload's built artifact must round-trip through it.
  const std::string dir = fresh_dir("kfi_bundle_test_every_workload");
  for (const workloads::Workload& workload : workloads::all_workloads()) {
    const std::string& name = workload.name;
    const inject::WorkloadGolden& artifact = cache_->workload(name);
    const std::string path = bundle_path(dir, name, options(), kernel_fp_);
    ASSERT_TRUE(write_bundle(path, name, artifact, options(), kernel_fp_,
                             base_->content_hash)
                    .has_value())
        << name;
    const auto loaded = load_bundle(path, name, options(), kernel_fp_, *base_);
    ASSERT_TRUE(loaded.has_value()) << name;
    EXPECT_EQ(loaded->artifact.ladder.size(), artifact.ladder.size()) << name;
  }
}

// Writes a copy of the suite's artifact with `corrupt` applied as a
// sealed bundle — one whose checksum holds — and requires load_bundle
// to refuse it, while the unchanged copy loads.
void expect_resealed_rejected(
    const std::string& name, const inject::WorkloadGolden& original,
    std::uint64_t kernel_fp, const LoadedBase& base,
    const std::function<void(inject::WorkloadGolden&)>& corrupt) {
  const std::string dir = fresh_dir(name);
  inject::WorkloadGolden artifact = original;
  ASSERT_TRUE(write_bundle(dir + "/intact.kfib", "pipe", artifact, {},
                           kernel_fp, base.content_hash)
                  .has_value());
  EXPECT_TRUE(load_bundle(dir + "/intact.kfib", "pipe", {}, kernel_fp, base)
                  .has_value());
  corrupt(artifact);
  ASSERT_TRUE(write_bundle(dir + "/bad.kfib", "pipe", artifact, {}, kernel_fp,
                           base.content_hash)
                  .has_value());
  EXPECT_FALSE(
      load_bundle(dir + "/bad.kfib", "pipe", {}, kernel_fp, base).has_value());
}

TEST_F(BundleTest, SwappedFootprintEntriesAreRejected) {
  // dead_at() binary-searches the footprint: out of order, it answers
  // wrongly for bytes it holds.
  const inject::WorkloadGolden& original = cache_->workload("pipe");
  ASSERT_GE(original.write_footprint.size(), 2u);
  expect_resealed_rejected(
      "kfi_bundle_test_swapped_footprint", original, kernel_fp_, *base_,
      [](inject::WorkloadGolden& artifact) {
        std::swap(artifact.write_footprint[0], artifact.write_footprint[1]);
      });
}

TEST_F(BundleTest, SwappedRungsAreRejected) {
  // Rung placement takes the last rung before a trigger's first
  // execution: out of order, a run would resume past its trigger.
  const inject::WorkloadGolden& original = cache_->workload("pipe");
  ASSERT_GE(original.ladder.size(), 2u);
  expect_resealed_rejected(
      "kfi_bundle_test_swapped_rungs", original, kernel_fp_, *base_,
      [](inject::WorkloadGolden& artifact) {
        std::swap(artifact.ladder[0], artifact.ladder[1]);
      });
}

TEST_F(BundleTest, OtherOrderingBreachesAreRejected) {
  const inject::WorkloadGolden& original = cache_->workload("pipe");
  ASSERT_GE(original.syscalls.size(), 2u);
  ASSERT_FALSE(original.ladder.empty());
  ASSERT_FALSE(original.first_touch.empty());
  // Syscall exits out of golden order (campaign F).
  expect_resealed_rejected(
      "kfi_bundle_test_swapped_syscalls", original, kernel_fp_, *base_,
      [](inject::WorkloadGolden& artifact) {
        std::swap(artifact.syscalls[0], artifact.syscalls.back());
      });
  // A rung no later than the boot.
  expect_resealed_rejected(
      "kfi_bundle_test_rung_at_boot", original, kernel_fp_, *base_,
      [](inject::WorkloadGolden& artifact) {
        artifact.ladder[0].cycle = artifact.boot->state.cycle;
      });
  // A touch window that ends before it starts.
  expect_resealed_rejected(
      "kfi_bundle_test_inverted_window", original, kernel_fp_, *base_,
      [](inject::WorkloadGolden& artifact) {
        machine::TouchWindow& window = artifact.first_touch.begin()->second;
        window.first = window.last + 1;
      });
}

// Inserts the zero full-restore flag byte that bundles before v4 kept
// in their options echo, after the u32 checkpoint count.
void insert_restore_flag_byte(std::string& bytes, const std::string& workload) {
  const std::size_t checkpoints_at = 8 + 4 + workload.size() + 8;
  bytes.insert(checkpoints_at + 4, 1, '\0');
}

void set_version(std::string& bytes, std::uint32_t version) {
  std::memcpy(bytes.data() + 4, &version, 4);
}

// Prepares a one-function campaign-E config, rewrites every bundle it
// built with `rewrite` (an older layout; it gets the body without the
// checksum trailer, which older builds did not write), and requires
// each rewritten bundle to be rejected at load and rebuilt by the next
// prepare.
void expect_rewritten_bundles_reprepared(
    const std::string& name, const inject::InjectorOptions& options,
    std::uint64_t kernel_fp,
    const std::function<void(std::string&, const inject::WorkloadGolden&,
                             const std::string&)>& rewrite) {
  ServiceConfig config;
  inject::CampaignConfig e = check::smoke_config(inject::Campaign::KernelData);
  e.functions = {"pipe_read"};
  config.campaigns = {e};
  config.options = options;
  config.dir = fresh_dir(name);
  config.bundle_dir = config.dir + "/bundles";
  ServiceResult first;
  ASSERT_TRUE(prepare_campaign(config, &first).has_value()) << first.error;
  ASSERT_GT(first.bundles_built, 0u);
  const auto manifest = load_manifest(config.dir);
  ASSERT_TRUE(manifest.has_value());

  const auto base = load_base(
      base_path(config.bundle_dir, manifest->base_workload, options,
                kernel_fp),
      manifest->base_workload, options, kernel_fp, manifest->base_hash);
  ASSERT_TRUE(base.has_value());
  for (const std::string& workload : manifest->workloads) {
    const std::string path =
        bundle_path(config.bundle_dir, workload, options, kernel_fp);
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    {
      const auto current =
          load_bundle(path, workload, options, kernel_fp, *base);
      ASSERT_TRUE(current.has_value());
      bytes.resize(bytes.size() - kSealBytes);
      rewrite(bytes, current->artifact, workload);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_FALSE(
        load_bundle(path, workload, options, kernel_fp, *base).has_value());
  }

  // Preparing again rebuilds each rejected bundle instead of adopting it.
  config.fresh = true;
  ServiceResult second;
  ASSERT_TRUE(prepare_campaign(config, &second).has_value()) << second.error;
  EXPECT_EQ(second.bundles_adopted, 0u);
  EXPECT_EQ(second.bundles_built, manifest->workloads.size());
  for (const std::string& workload : manifest->workloads) {
    const auto loaded = load_bundle(
        bundle_path(config.bundle_dir, workload, options, kernel_fp),
        workload, options, kernel_fp, *base);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->artifact.dead_bits.size(),
              loaded->artifact.dead_words());
  }
}

TEST_F(BundleTest, VersionTwoBundleIsRejectedAndReprepared) {
  // The v2 layout: no dead-bit tail, and the full-restore flag byte.
  expect_rewritten_bundles_reprepared(
      "kfi_bundle_test_v2", options(), kernel_fp_,
      [](std::string& bytes, const inject::WorkloadGolden& artifact,
         const std::string& workload) {
        const std::size_t tail = 8 + 8 * artifact.dead_bits.size();
        ASSERT_GT(bytes.size(), tail);
        bytes.resize(bytes.size() - tail);
        insert_restore_flag_byte(bytes, workload);
        set_version(bytes, 2);
      });
}

TEST_F(BundleTest, VersionThreeBundleIsRejectedAndReprepared) {
  // The v3 layout: today's payload with the full-restore flag byte.
  expect_rewritten_bundles_reprepared(
      "kfi_bundle_test_v3", options(), kernel_fp_,
      [](std::string& bytes, const inject::WorkloadGolden&,
         const std::string& workload) {
        insert_restore_flag_byte(bytes, workload);
        set_version(bytes, 3);
      });
}

// A rewrite that stamps today's payload with an older `version` and
// reseals it, so the version alone can reject it.
std::function<void(std::string&, const inject::WorkloadGolden&,
                   const std::string&)>
restamped(std::uint32_t version) {
  return [version](std::string& bytes, const inject::WorkloadGolden&,
                   const std::string&) {
    set_version(bytes, version);
    const std::uint64_t seal = content_hash(bytes.data(), bytes.size());
    bytes.append(reinterpret_cast<const char*>(&seal), sizeof seal);
  };
}

TEST_F(BundleTest, VersionSixBundleIsRejectedAndReprepared) {
  // A sealed bundle stamped v6 (before the coverage list went and the
  // boot state became a checkpoint) is rejected by its version alone.
  expect_rewritten_bundles_reprepared("kfi_bundle_test_v6", options(),
                                      kernel_fp_, restamped(6));
}

TEST_F(BundleTest, VersionSevenBundleIsRejectedAndReprepared) {
  // A sealed bundle stamped v7 (before every delta became an index
  // list) is rejected by its version alone.
  expect_rewritten_bundles_reprepared("kfi_bundle_test_v7", options(),
                                      kernel_fp_, restamped(7));
}

// Writes the suite's artifact as a bundle, applies `edit` to the bytes
// of its last ladder rung's RAM delta, reseals it — so the checksum
// holds and the parser must catch the edit — and requires load_bundle
// to refuse it.  `at` is the delta's offset in the unsealed bytes: its
// chunk size, array size, delta flag and chunk count, then the stored
// chunk count at at + 17, the indices from at + 21, and the payload
// size after them.
void expect_delta_edit_rejected(
    const std::string& name, const inject::WorkloadGolden& artifact,
    std::uint64_t kernel_fp, const LoadedBase& base,
    const std::function<void(std::string& bytes, std::size_t at,
                             const vm::ChunkedSnapshot& mem)>& edit) {
  const std::string path = fresh_dir(name) + "/bundle.kfib";
  ASSERT_TRUE(write_bundle(path, "pipe", artifact, {}, kernel_fp,
                           base.content_hash)
                  .has_value());
  ASSERT_TRUE(load_bundle(path, "pipe", {}, kernel_fp, base).has_value());
  std::string bytes = read_file_bytes(path).value_or("");
  ASSERT_GT(bytes.size(), kSealBytes);
  bytes.resize(bytes.size() - kSealBytes);

  // The rung serialized on its own is found in the file; its RAM delta
  // is what precedes its disk delta at the end.
  const machine::Checkpoint& rung = artifact.ladder.back();
  ASSERT_GE(rung.mem.indices().size(), 2u);
  ByteWriter whole;
  machine::write_checkpoint(whole, rung);
  const std::size_t rung_at = bytes.find(whole.buffer());
  ASSERT_NE(rung_at, std::string::npos);
  ByteWriter mem_head;
  machine::write_snapshot_header(mem_head, rung.mem);
  ByteWriter disk_head;
  machine::write_snapshot_header(disk_head, rung.disk);
  const std::size_t at = rung_at + whole.size() - disk_head.size() -
                         rung.disk.payload_size() - mem_head.size() -
                         rung.mem.payload_size();
  ASSERT_EQ(bytes.compare(at, mem_head.size(), mem_head.buffer()), 0);

  edit(bytes, at, rung.mem);
  ASSERT_TRUE(write_sealed_file(path, bytes).has_value());
  EXPECT_FALSE(load_bundle(path, "pipe", {}, kernel_fp, base).has_value());
}

std::uint32_t get_u32(const std::string& bytes, std::size_t at) {
  std::uint32_t value = 0;
  std::memcpy(&value, bytes.data() + at, 4);
  return value;
}

void put_u32(std::string& bytes, std::size_t at, std::uint32_t value) {
  std::memcpy(bytes.data() + at, &value, 4);
}

TEST_F(BundleTest, DescendingDeltaIndicesAreRejected) {
  // Restores and compares walk the list in step with the chunks.
  expect_delta_edit_rejected(
      "kfi_bundle_test_descending_index", cache_->workload("pipe"),
      kernel_fp_, *base_,
      [](std::string& bytes, std::size_t at, const vm::ChunkedSnapshot&) {
        const std::uint32_t first = get_u32(bytes, at + 21);
        put_u32(bytes, at + 21, get_u32(bytes, at + 25));
        put_u32(bytes, at + 25, first);
      });
}

TEST_F(BundleTest, RepeatedDeltaIndexIsRejected) {
  expect_delta_edit_rejected(
      "kfi_bundle_test_repeated_index", cache_->workload("pipe"), kernel_fp_,
      *base_,
      [](std::string& bytes, std::size_t at, const vm::ChunkedSnapshot&) {
        put_u32(bytes, at + 25, get_u32(bytes, at + 21));
      });
}

TEST_F(BundleTest, DeltaIndexPastTheArrayIsRejected) {
  // The last index names the chunk just past RAM: still ascending.
  expect_delta_edit_rejected(
      "kfi_bundle_test_index_past_array", cache_->workload("pipe"),
      kernel_fp_, *base_,
      [](std::string& bytes, std::size_t at, const vm::ChunkedSnapshot& mem) {
        const std::size_t last = at + 21 + 4 * (mem.indices().size() - 1);
        put_u32(bytes, last, mem.chunk_count());
      });
}

TEST_F(BundleTest, DeltaCountPastTheBytesLeftIsRejected) {
  // The file ends one index into the list: the count is within the
  // chunk count but promises more indices than there are bytes.
  expect_delta_edit_rejected(
      "kfi_bundle_test_count_past_end", cache_->workload("pipe"), kernel_fp_,
      *base_,
      [](std::string& bytes, std::size_t at, const vm::ChunkedSnapshot& mem) {
        ASSERT_LE(get_u32(bytes, at + 17), mem.chunk_count());
        bytes.resize(at + 21 + 4);
      });
}

TEST_F(BundleTest, DeltaPayloadOfTheWrongSizeIsRejected) {
  // One index fewer, the payload kept: it holds a chunk slot too many,
  // and everything after it still parses.
  expect_delta_edit_rejected(
      "kfi_bundle_test_payload_size", cache_->workload("pipe"), kernel_fp_,
      *base_,
      [](std::string& bytes, std::size_t at, const vm::ChunkedSnapshot& mem) {
        const std::uint32_t count = get_u32(bytes, at + 17);
        put_u32(bytes, at + 17, count - 1);
        bytes.erase(at + 21 + 4 * (count - 1), 4);
        ASSERT_EQ(count, mem.indices().size());
      });
}

// Cut points for a file of `size` bytes: every offset through its
// first `header` bytes, then a 256-way stride through the rest, longest
// first so one file can shrink in place.
std::vector<std::size_t> cut_points(std::size_t size, std::size_t header) {
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut <= header; ++cut) cuts.push_back(cut);
  const std::size_t stride = std::max<std::size_t>(1, (size - header) / 256);
  for (std::size_t cut = header + stride; cut < size; cut += stride) {
    cuts.push_back(cut);
  }
  cuts.push_back(size - 1);
  std::sort(cuts.rbegin(), cuts.rend());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

// Bits to flip in a file of `size` bytes: every bit of its first
// `header` bytes, then one bit per 8-byte word at a 256-way stride
// through the rest (a different bit of each word).
std::vector<std::size_t> flip_points(std::size_t size, std::size_t header) {
  std::vector<std::size_t> bits;
  for (std::size_t bit = 0; bit < 8 * header; ++bit) bits.push_back(bit);
  const std::size_t words = (size - header) / 8;
  const std::size_t stride = std::max<std::size_t>(1, words / 256);
  std::size_t flips = 0;
  for (std::size_t word = 0; word < words; word += stride, ++flips) {
    bits.push_back(8 * (header + 8 * word) + flips % 64);
  }
  return bits;
}

TEST_F(BundleTest, TruncatedBundleIsRejected) {
  // Every cut through the identity header (magic, version, workload
  // name, kernel fingerprint, options echo, base trailer), then cuts at
  // a fixed stride through the payload, each on an otherwise valid
  // bundle.
  const inject::WorkloadGolden& artifact = cache_->workload("pipe");
  const std::string dir = fresh_dir("kfi_bundle_test_truncated");
  const std::string path = dir + "/bundle.kfib";
  ASSERT_TRUE(write_bundle(path, "pipe", artifact, options(), kernel_fp_,
                           base_->content_hash)
                  .has_value());
  const std::size_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, bundle_header("pipe"));
  for (const std::size_t cut : cut_points(size, bundle_header("pipe"))) {
    std::filesystem::resize_file(path, cut);
    EXPECT_FALSE(
        load_bundle(path, "pipe", options(), kernel_fp_, *base_).has_value())
        << "cut at " << cut << " of " << size;
  }
}

TEST_F(BundleTest, BitFlipAnywhereIsRejected) {
  // Every bit of the identity header, then one bit per 8-byte word at
  // a 256-way stride through the payload, each flipped alone in an
  // otherwise valid bundle.  The checksum trailer must catch every flip,
  // with or without the manifest's hash: a payload flip in snapshot
  // bytes would otherwise parse.
  const inject::WorkloadGolden& artifact = cache_->workload("pipe");
  const std::string dir = fresh_dir("kfi_bundle_test_bitflip");
  const std::string path = dir + "/bundle.kfib";
  const auto hash = write_bundle(path, "pipe", artifact, options(),
                                 kernel_fp_, base_->content_hash);
  ASSERT_TRUE(hash.has_value());
  const std::size_t size = std::filesystem::file_size(path);
  const std::size_t header = bundle_header("pipe");
  ASSERT_GT(size, header + 8);

  const std::vector<std::size_t> bits = flip_points(size, header);
  EXPECT_GE(bits.size(), 8 * header + 256);
  for (const std::size_t bit : bits) {
    flip_bit(path, bit);
    EXPECT_FALSE(load_bundle(path, "pipe", options(), kernel_fp_, *base_,
                             *hash)
                     .has_value())
        << "bit " << bit;
    EXPECT_FALSE(
        load_bundle(path, "pipe", options(), kernel_fp_, *base_).has_value())
        << "bit " << bit << " without a hash";
    flip_bit(path, bit);
  }
  // Every flip was undone: the bundle loads against its hash again.
  EXPECT_TRUE(load_bundle(path, "pipe", options(), kernel_fp_, *base_, *hash)
                  .has_value());
}

TEST_F(BundleTest, BaseFileRoundTripsItsImage) {
  const machine::BaseImage& built = *cache_->base();
  const machine::BaseImage& mapped = *base_->image;
  EXPECT_TRUE(mapped.mem.is_view());
  EXPECT_NE(mapped.keepalive, nullptr);
  ASSERT_EQ(mapped.mem.size(), built.mem.size());
  ASSERT_EQ(mapped.disk.size(), built.disk.size());
  EXPECT_EQ(std::memcmp(mapped.mem.payload(), built.mem.payload(),
                        built.mem.size()),
            0);
  EXPECT_EQ(std::memcmp(mapped.disk.payload(), built.disk.payload(),
                        built.disk.size()),
            0);
  // The one full image plus a few dozen bytes of headers and trailer.
  EXPECT_EQ(base_->size, std::filesystem::file_size(base_path_));
  EXPECT_LT(base_->size - built.storage_bytes(), 1024u);
  // Another workload or option set names another base.
  EXPECT_FALSE(load_base(base_path_, "syscall", options(), kernel_fp_)
                   .has_value());
  EXPECT_FALSE(
      load_base(base_path_, "pipe", options(), kernel_fp_ ^ 1).has_value());
  EXPECT_FALSE(load_base(base_path_, "pipe", options(), kernel_fp_,
                         base_->content_hash ^ 1)
                   .has_value());
}

// Bytes before the base file's RAM payload: the identity header, then
// the RAM snapshot's header (chunk size, size, kind, chunk count,
// payload size).
std::size_t base_header(const std::string& workload) {
  return 8 + 4 + workload.size() + 8 + 8 + 4 + 8 + 1 + 4 + 8;
}

TEST_F(BundleTest, TruncatedBaseFileIsRejected) {
  const std::string path = fresh_dir("kfi_bundle_test_base_cut") + "/base.kfib";
  std::filesystem::copy_file(base_path_, path);
  const std::size_t size = std::filesystem::file_size(path);
  for (const std::size_t cut : cut_points(size, base_header("pipe"))) {
    std::filesystem::resize_file(path, cut);
    EXPECT_FALSE(load_base(path, "pipe", options(), kernel_fp_).has_value())
        << "cut at " << cut << " of " << size;
  }
}

TEST_F(BundleTest, BaseFileBitFlipAnywhereIsRejected) {
  const std::string path =
      fresh_dir("kfi_bundle_test_base_flip") + "/base.kfib";
  std::filesystem::copy_file(base_path_, path);
  const std::size_t size = std::filesystem::file_size(path);
  const std::vector<std::size_t> bits =
      flip_points(size, base_header("pipe"));
  EXPECT_GE(bits.size(), 8 * base_header("pipe") + 256);
  for (const std::size_t bit : bits) {
    flip_bit(path, bit);
    EXPECT_FALSE(load_base(path, "pipe", options(), kernel_fp_).has_value())
        << "bit " << bit;
    flip_bit(path, bit);
  }
  EXPECT_TRUE(load_base(path, "pipe", options(), kernel_fp_,
                        base_->content_hash)
                  .has_value());
}

// Restamps the suite's base file with an older `version`, resealed:
// the version alone rejects it, and the same bytes at the current
// version load.
void expect_base_version_rejected(const std::string& name,
                                  const std::string& base_file,
                                  std::uint64_t kernel_fp,
                                  std::uint32_t version) {
  const std::string path = fresh_dir(name) + "/base.kfib";
  std::string bytes = read_file_bytes(base_file).value_or("");
  ASSERT_GT(bytes.size(), base_header("pipe") + kSealBytes);
  bytes.resize(bytes.size() - kSealBytes);
  set_version(bytes, version);
  ASSERT_TRUE(write_sealed_file(path, bytes).has_value());
  EXPECT_FALSE(load_base(path, "pipe", {}, kernel_fp).has_value());
  // The same bytes at the current version load.
  set_version(bytes, 8);
  ASSERT_TRUE(write_sealed_file(path, bytes).has_value());
  EXPECT_TRUE(load_base(path, "pipe", {}, kernel_fp).has_value());
}

TEST_F(BundleTest, VersionSixBaseFileIsRejected) {
  expect_base_version_rejected("kfi_bundle_test_base_v6", base_path_,
                               kernel_fp_, 6);
}

TEST_F(BundleTest, VersionSevenBaseFileIsRejected) {
  expect_base_version_rejected("kfi_bundle_test_base_v7", base_path_,
                               kernel_fp_, 7);
}

TEST_F(BundleTest, DeterministicBytesAcrossRewrites) {
  const inject::WorkloadGolden& artifact = cache_->workload("pipe");
  const std::string dir = fresh_dir("kfi_bundle_test_deterministic");
  const auto h1 = write_bundle(dir + "/one.kfib", "pipe", artifact, options(),
                               kernel_fp_, base_->content_hash);
  const auto h2 = write_bundle(dir + "/two.kfib", "pipe", artifact, options(),
                               kernel_fp_, base_->content_hash);
  ASSERT_TRUE(h1.has_value() && h2.has_value());
  // Coverage and first-touch are hash maps in memory; the bundle must
  // serialize them in a canonical order for the content hash to be
  // stable across writers.
  EXPECT_EQ(*h1, *h2);
  const auto b1 = write_base(dir + "/one_base.kfib", "pipe", *cache_->base(),
                             options(), kernel_fp_);
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(*b1, base_->content_hash);
}

TEST_F(BundleTest, RejectsMismatchedIdentityAndCorruption) {
  const inject::WorkloadGolden& artifact = cache_->workload("pipe");
  const std::string dir = fresh_dir("kfi_bundle_test_reject");
  const std::string path = dir + "/bundle.kfib";
  const auto hash = write_bundle(path, "pipe", artifact, options(),
                                 kernel_fp_, base_->content_hash);
  ASSERT_TRUE(hash.has_value());

  // Wrong workload name.
  EXPECT_FALSE(
      load_bundle(path, "syscall", options(), kernel_fp_, *base_).has_value());
  // Wrong kernel build.
  EXPECT_FALSE(load_bundle(path, "pipe", options(), kernel_fp_ ^ 1, *base_)
                   .has_value());
  // Wrong ladder geometry.
  inject::InjectorOptions other = options();
  other.checkpoints += 1;
  EXPECT_FALSE(
      load_bundle(path, "pipe", other, kernel_fp_, *base_).has_value());
  // Manifest hash mismatch.
  EXPECT_FALSE(
      load_bundle(path, "pipe", options(), kernel_fp_, *base_, *hash ^ 1)
          .has_value());
  // Another base file.
  LoadedBase foreign = *base_;
  foreign.content_hash ^= 1;
  EXPECT_FALSE(
      load_bundle(path, "pipe", options(), kernel_fp_, foreign).has_value());

  // Truncation.
  const std::string cut = dir + "/cut.kfib";
  std::filesystem::copy_file(path, cut);
  std::filesystem::resize_file(cut,
                               std::filesystem::file_size(cut) * 3 / 4);
  EXPECT_FALSE(
      load_bundle(cut, "pipe", options(), kernel_fp_, *base_).has_value());

  // A flipped byte in the payload, with and without the recorded hash.
  const std::string bad = dir + "/bad.kfib";
  std::filesystem::copy_file(path, bad);
  flip_bit(bad, 8 * (std::filesystem::file_size(bad) / 2));
  EXPECT_FALSE(load_bundle(bad, "pipe", options(), kernel_fp_, *base_, *hash)
                   .has_value());
  EXPECT_FALSE(
      load_bundle(bad, "pipe", options(), kernel_fp_, *base_).has_value());
}

TEST_F(BundleTest, AdoptedBundleSubstitutesForALocalBuild) {
  const inject::WorkloadGolden& original = cache_->workload("pipe");
  const std::string dir = fresh_dir("kfi_bundle_test_adopt");
  const std::string path = bundle_path(dir, "pipe", options(), kernel_fp_);
  const auto hash = write_bundle(path, "pipe", original, options(),
                                 kernel_fp_, base_->content_hash);
  ASSERT_TRUE(hash.has_value());
  auto loaded = load_bundle(path, "pipe", options(), kernel_fp_, *base_, *hash);
  ASSERT_TRUE(loaded.has_value());

  inject::GoldenCache adopter(options());
  EXPECT_TRUE(adopter.adopt_workload("pipe", std::move(loaded->artifact),
                                     loaded->keepalive));
  EXPECT_EQ(adopter.adoptions(), 1u);
  // The adopted artifact's base became the cache's base.
  EXPECT_EQ(adopter.base(), base_->image);
  // The adopted entry wins: asking for the workload must not build.
  const inject::WorkloadGolden& adopted = adopter.workload("pipe");
  EXPECT_EQ(adopter.golden_builds(), 0u);
  EXPECT_EQ(adopted.golden.cycles, original.golden.cycles);
  ASSERT_EQ(adopted.first_touch.size(), original.first_touch.size());
  for (const auto& [addr, window] : original.first_touch) {
    EXPECT_EQ(adopted.first_touch.count(addr), 1u) << addr;
  }
  // A second adoption under the same name is refused.
  inject::WorkloadGolden again;
  again.boot = adopted.boot;
  EXPECT_FALSE(adopter.adopt_workload("pipe", again, nullptr));
  EXPECT_EQ(adopter.adoptions(), 1u);
}

}  // namespace
}  // namespace kfi::serve
