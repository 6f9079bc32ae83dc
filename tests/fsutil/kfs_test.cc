// kfs tool tests: mkfs/build/read round trips, fsck verdicts for each
// corruption class, and digest stability.
#include "fsutil/kfs.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "fsutil/kfs_format.h"

namespace kfi::fsutil {
namespace {

disk::DiskImage fresh_image() {
  disk::DiskImage image(kDefaultBlocks);
  mkfs(image);
  return image;
}

std::string big_string(std::size_t n, char seed) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>(seed + (i % 23));
  }
  return s;
}

TEST(Kfs, MkfsProducesCleanFs) {
  const disk::DiskImage image = fresh_image();
  const FsckReport report = fsck(image);
  EXPECT_EQ(report.verdict, FsckVerdict::Clean);
  EXPECT_TRUE(report.issues.empty());
}

TEST(Kfs, FileRoundTrip) {
  disk::DiskImage image = fresh_image();
  ASSERT_NE(add_file(image, "/hello.txt", "hello world"), 0u);
  const auto data = read_file(image, "/hello.txt");
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(std::string(data->begin(), data->end()), "hello world");
}

TEST(Kfs, NestedDirectories) {
  disk::DiskImage image = fresh_image();
  ASSERT_NE(add_dir(image, "/lib/i686"), 0u);
  ASSERT_NE(add_file(image, "/lib/i686/libc.so.6", "ELF..."), 0u);
  EXPECT_NE(lookup(image, "/lib"), 0u);
  EXPECT_NE(lookup(image, "/lib/i686"), 0u);
  const auto data = read_file(image, "/lib/i686/libc.so.6");
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->size(), 6u);
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Clean);
}

TEST(Kfs, MultiBlockFile) {
  disk::DiskImage image = fresh_image();
  const std::string contents = big_string(kBlockSize * 3 + 100, 'a');
  ASSERT_NE(add_file(image, "/data", contents), 0u);
  const auto data = read_file(image, "/data");
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(std::string(data->begin(), data->end()), contents);
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Clean);
}

TEST(Kfs, MaxFileSizeEnforced) {
  disk::DiskImage image = fresh_image();
  EXPECT_NE(add_file(image, "/ok", big_string(kMaxFileSize, 'x')), 0u);
  EXPECT_EQ(add_file(image, "/too_big", big_string(kMaxFileSize + 1, 'x')),
            0u);
}

TEST(Kfs, MissingPathsReturnNothing) {
  disk::DiskImage image = fresh_image();
  EXPECT_EQ(lookup(image, "/nope"), 0u);
  EXPECT_FALSE(read_file(image, "/nope").has_value());
  EXPECT_FALSE(read_file(image, "/a/b/c").has_value());
}

TEST(Kfs, DuplicateFileRejected) {
  disk::DiskImage image = fresh_image();
  ASSERT_NE(add_file(image, "/x", "1"), 0u);
  EXPECT_EQ(add_file(image, "/x", "2"), 0u);
}

TEST(Kfs, ManyFilesInDirectory) {
  disk::DiskImage image = fresh_image();
  for (int i = 0; i < 60; ++i) {
    ASSERT_NE(add_file(image, "/f" + std::to_string(i),
                       "contents " + std::to_string(i)),
              0u)
        << i;
  }
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Clean);
  const auto f42 = read_file(image, "/f42");
  ASSERT_TRUE(f42.has_value());
  EXPECT_EQ(std::string(f42->begin(), f42->end()), "contents 42");
}

// ---- fsck verdicts per corruption class (the §7.1 severity model) ----

TEST(Fsck, BadMagicIsUnrepairable) {
  disk::DiskImage image = fresh_image();
  image.write32(kSbMagic, 0xDEADBEEF);
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Unrepairable);
}

TEST(Fsck, DestroyedRootIsUnrepairable) {
  disk::DiskImage image = fresh_image();
  add_file(image, "/keep", "data");
  // Zero the root inode.
  const std::uint32_t at = kInodeTableBlock * kBlockSize + kRootIno * kInodeSize;
  for (std::uint32_t i = 0; i < kInodeSize; i += 4) image.write32(at + i, 0);
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Unrepairable);
}

TEST(Fsck, InsaneGeometryIsUnrepairable) {
  disk::DiskImage image = fresh_image();
  image.write32(kSbDataStart, 0xFFFFFFFF);
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Unrepairable);
}

TEST(Fsck, OversizedInodeIsRepairable) {
  disk::DiskImage image = fresh_image();
  const std::uint32_t ino = add_file(image, "/f", "data");
  ASSERT_NE(ino, 0u);
  const std::uint32_t at =
      kInodeTableBlock * kBlockSize + ino * kInodeSize + kInodeSizeOff;
  image.write32(at, kMaxFileSize + 5000);  // inode->i_size corruption
  const FsckReport report = fsck(image);
  EXPECT_EQ(report.verdict, FsckVerdict::Repairable);
  EXPECT_FALSE(report.issues.empty());
}

TEST(Fsck, DanglingDirentIsRepairable) {
  disk::DiskImage image = fresh_image();
  const std::uint32_t ino = add_file(image, "/f", "data");
  ASSERT_NE(ino, 0u);
  // Free the inode behind the dirent's back.
  const std::uint32_t at = kInodeTableBlock * kBlockSize + ino * kInodeSize;
  image.write32(at + kInodeMode, kModeFree);
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Repairable);
}

TEST(Fsck, OutOfRangeBlockPointerIsRepairable) {
  disk::DiskImage image = fresh_image();
  const std::uint32_t ino = add_file(image, "/f", "data");
  const std::uint32_t at =
      kInodeTableBlock * kBlockSize + ino * kInodeSize + kInodeBlock0;
  image.write32(at, 0xFFFFF000);
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Repairable);
}

TEST(Fsck, CrossLinkedBlocksAreRepairable) {
  disk::DiskImage image = fresh_image();
  const std::uint32_t a = add_file(image, "/a", "aaaa");
  const std::uint32_t b = add_file(image, "/b", "bbbb");
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  const std::uint32_t a_block = image.read32(
      kInodeTableBlock * kBlockSize + a * kInodeSize + kInodeBlock0);
  image.write32(kInodeTableBlock * kBlockSize + b * kInodeSize + kInodeBlock0,
                a_block);
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Repairable);
}

TEST(Fsck, LeakedBlockIsRepairable) {
  disk::DiskImage image = fresh_image();
  // Mark a data block used without referencing it anywhere.
  image.bytes()[kBitmapBlock * kBlockSize + (kDefaultDataStart + 7) / 8] |=
      static_cast<std::uint8_t>(1u << ((kDefaultDataStart + 7) % 8));
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Repairable);
}

TEST(Fsck, DirectoryCycleIsUnrepairable) {
  disk::DiskImage image = fresh_image();
  const std::uint32_t sub = add_dir(image, "/sub");
  ASSERT_NE(sub, 0u);
  // Insert root into /sub, creating a cycle.
  // Root's dirent for "sub" exists; add "loop" -> root inside /sub.
  // We do this by hand: find /sub's data block.
  const std::uint32_t at = kInodeTableBlock * kBlockSize + sub * kInodeSize;
  std::uint32_t sub_block = image.read32(at + kInodeBlock0);
  if (sub_block == 0) {
    // Give /sub a data block with one entry pointing at root.
    add_file(image, "/sub/tmp", "x");
    sub_block = image.read32(at + kInodeBlock0);
  }
  ASSERT_NE(sub_block, 0u);
  // Overwrite the first dirent with a link back to root.
  image.write32(sub_block * kBlockSize, kRootIno);
  const char name[] = "loop";
  std::memcpy(image.block(sub_block) + 4, name, sizeof name);
  EXPECT_EQ(fsck(image).verdict, FsckVerdict::Unrepairable);
}

// ---- digest ----

TEST(Digest, StableAcrossIdenticalBuilds) {
  disk::DiskImage a = fresh_image();
  disk::DiskImage b = fresh_image();
  add_dir(a, "/etc");
  add_file(a, "/etc/passwd", "root:x:0:0");
  add_dir(b, "/etc");
  add_file(b, "/etc/passwd", "root:x:0:0");
  EXPECT_EQ(tree_digest(a), tree_digest(b));
  EXPECT_NE(tree_digest(a), 0u);
}

TEST(Digest, DetectsContentChange) {
  disk::DiskImage a = fresh_image();
  add_file(a, "/f", "AAAA");
  const std::uint64_t before = tree_digest(a);
  // Flip one data byte.
  const std::uint32_t ino = lookup(a, "/f");
  const std::uint32_t block = a.read32(
      kInodeTableBlock * kBlockSize + ino * kInodeSize + kInodeBlock0);
  a.block(block)[0] ^= 0x01;
  EXPECT_NE(tree_digest(a), before);
}

TEST(Digest, DetectsTruncation) {
  disk::DiskImage a = fresh_image();
  const std::uint32_t ino = add_file(a, "/f", "AAAA");
  const std::uint64_t before = tree_digest(a);
  // The paper's Table 5 case 8: inode->i_size reduced.
  a.write32(kInodeTableBlock * kBlockSize + ino * kInodeSize + kInodeSizeOff,
            0);
  EXPECT_NE(tree_digest(a), before);
}

TEST(Digest, BrokenFsHashesToSentinel) {
  disk::DiskImage a = fresh_image();
  a.write32(kSbMagic, 0);
  EXPECT_EQ(tree_digest(a), 0u);
}

// ---- disk device MMIO ----

TEST(DiskDevice, ReadAndWriteBlocks) {
  disk::DiskImage image(64);
  vm::PhysicalMemory memory(1 << 20);
  disk::DiskDevice device(image, memory);

  // Prepare RAM at 0x5000, write it to block 3, clear, read back.
  for (int i = 0; i < 16; ++i) {
    memory.write32(0x5000 + 4 * i, 0xA0A0A000u + static_cast<std::uint32_t>(i));
  }
  device.mmio_write(disk::kRegBlock, 3);
  device.mmio_write(disk::kRegPhys, 0x5000);
  device.mmio_write(disk::kRegCmd, disk::kCmdWrite);
  EXPECT_EQ(device.mmio_read(disk::kRegStatus), 0u);

  memory.fill(0x5000, disk::kBlockSize, 0);
  device.mmio_write(disk::kRegCmd, disk::kCmdRead);
  EXPECT_EQ(device.mmio_read(disk::kRegStatus), 0u);
  EXPECT_EQ(memory.read32(0x5000 + 4 * 7), 0xA0A0A007u);
  EXPECT_EQ(device.reads(), 1u);
  EXPECT_EQ(device.writes(), 1u);
}

TEST(DiskDevice, OutOfRangeBlockErrors) {
  disk::DiskImage image(64);
  vm::PhysicalMemory memory(1 << 20);
  disk::DiskDevice device(image, memory);
  device.mmio_write(disk::kRegBlock, 1000);
  device.mmio_write(disk::kRegPhys, 0x5000);
  device.mmio_write(disk::kRegCmd, disk::kCmdRead);
  EXPECT_EQ(device.mmio_read(disk::kRegStatus), 1u);
}

TEST(DiskDevice, BadPhysicalAddressErrors) {
  disk::DiskImage image(64);
  vm::PhysicalMemory memory(1 << 20);
  disk::DiskDevice device(image, memory);
  device.mmio_write(disk::kRegBlock, 1);
  device.mmio_write(disk::kRegPhys, 0xFFFFFF00);
  device.mmio_write(disk::kRegCmd, disk::kCmdRead);
  EXPECT_EQ(device.mmio_read(disk::kRegStatus), 1u);
}

}  // namespace
}  // namespace kfi::fsutil
