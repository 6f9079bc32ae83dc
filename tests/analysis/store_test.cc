// Shard store: record round-trip in the campaign cache byte layout,
// sealed artifacts that refuse every truncation and bit flip at open,
// the k-way spec-order merge, and the streaming digest fold the sharded
// campaign service rests on.
#include "analysis/store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/fsio.h"
#include "support/serial.h"

namespace kfi::analysis {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// A result with every serialized field off its default, so a field
// dropped or reordered by the codec shows up as a mismatch.
inject::InjectionResult sample_result(std::uint64_t salt) {
  inject::InjectionResult r;
  r.spec.campaign = inject::Campaign::RandomBranch;
  r.spec.function = "sys_write_" + std::to_string(salt);
  r.spec.subsystem = kernel::Subsystem::Fs;
  r.spec.instr_addr = 0x1000 + static_cast<std::uint32_t>(salt);
  r.spec.instr_len = 3;
  r.spec.byte_index = 1;
  r.spec.bit_index = static_cast<std::uint8_t>(salt % 8);
  r.spec.workload = "pipe";
  r.outcome = inject::Outcome::DumpedCrash;
  r.activation_cycle = 77 + salt;
  r.cause = inject::CrashCause::PagingRequest;
  r.crash_eip = 0x2000;
  r.crash_addr = 0xdead0000 + static_cast<std::uint32_t>(salt);
  r.crash_subsystem = kernel::Subsystem::Mm;
  r.propagated = true;
  r.latency_cycles = 12345 + salt;
  r.severity = inject::Severity::Severe;
  r.fs_damaged = true;
  r.bootable = false;
  r.repair_verified = true;
  r.disasm_before = "mov eax, ebx";
  r.disasm_after = "mov eax, ebp";
  return r;
}

void expect_equal(const inject::InjectionResult& a,
                  const inject::InjectionResult& b) {
  EXPECT_EQ(a.spec.campaign, b.spec.campaign);
  EXPECT_EQ(a.spec.function, b.spec.function);
  EXPECT_EQ(a.spec.subsystem, b.spec.subsystem);
  EXPECT_EQ(a.spec.instr_addr, b.spec.instr_addr);
  EXPECT_EQ(a.spec.instr_len, b.spec.instr_len);
  EXPECT_EQ(a.spec.byte_index, b.spec.byte_index);
  EXPECT_EQ(a.spec.bit_index, b.spec.bit_index);
  EXPECT_EQ(a.spec.workload, b.spec.workload);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.activation_cycle, b.activation_cycle);
  EXPECT_EQ(a.cause, b.cause);
  EXPECT_EQ(a.crash_eip, b.crash_eip);
  EXPECT_EQ(a.crash_addr, b.crash_addr);
  EXPECT_EQ(a.crash_subsystem, b.crash_subsystem);
  EXPECT_EQ(a.propagated, b.propagated);
  EXPECT_EQ(a.latency_cycles, b.latency_cycles);
  EXPECT_EQ(a.severity, b.severity);
  EXPECT_EQ(a.fs_damaged, b.fs_damaged);
  EXPECT_EQ(a.bootable, b.bootable);
  EXPECT_EQ(a.repair_verified, b.repair_verified);
  EXPECT_EQ(a.disasm_before, b.disasm_before);
  EXPECT_EQ(a.disasm_after, b.disasm_after);
}

TEST(Store, ResultRoundTripPreservesEveryField) {
  const inject::InjectionResult original = sample_result(5);
  ByteWriter writer;
  write_result(writer, original);
  ByteReader reader(writer.buffer().data(), writer.size());
  inject::InjectionResult back;
  ASSERT_TRUE(read_result(reader, back));
  EXPECT_EQ(reader.remaining(), 0u);
  expect_equal(original, back);
}

TEST(Store, ResultDigestMatchesStreamingFoldOverSameOrder) {
  std::vector<inject::CampaignRun> runs(2);
  runs[0].results = {sample_result(0), sample_result(1), sample_result(2)};
  runs[1].results = {sample_result(3), sample_result(4)};

  ResultDigest rolling;
  for (const auto& run : runs)
    for (const auto& r : run.results) rolling.add(r);
  EXPECT_EQ(rolling.value(), results_digest(runs));

  StreamingFold fold({3, 2}, /*materialize=*/true);
  std::uint64_t index = 0;
  for (const auto& run : runs)
    for (const auto& r : run.results)
      ASSERT_TRUE(fold.add(ShardRecord{index++, r}));
  EXPECT_TRUE(fold.complete());
  EXPECT_EQ(fold.digest(), results_digest(runs));
  ASSERT_EQ(fold.slots().size(), 2u);
  EXPECT_EQ(fold.slots()[0].size(), 3u);
  EXPECT_EQ(fold.slots()[1].size(), 2u);
  expect_equal(fold.slots()[1][0], runs[1].results[0]);
}

TEST(Store, WriteShardIsSealedAndVerifies) {
  const std::string dir = fresh_dir("kfi_store_test_write");
  ShardStore store(dir);
  // Records handed over unsorted; the file must come back in spec order.
  std::vector<ShardRecord> records = {{9, sample_result(9)},
                                      {4, sample_result(4)},
                                      {7, sample_result(7)}};
  const std::string path = store.write_shard(3, 0xabcd, records);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path, dir + "/shard_000003.kfis");
  EXPECT_EQ(path, store.shard_path(3));
  const std::optional<std::string> bytes = read_file_bytes(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_TRUE(check_seal(bytes->data(), bytes->size()).has_value());
  EXPECT_FALSE(ShardCursor::open(store.shard_path(2), 2, 0xabcd).has_value())
      << "a shard that was never written does not open";

  auto cursor = ShardCursor::open(path, 3, 0xabcd);
  ASSERT_TRUE(cursor.has_value());
  EXPECT_EQ(cursor->records(), 3u);
  ShardRecord record;
  std::vector<std::uint64_t> order;
  while (cursor->next(record)) order.push_back(record.spec_index);
  EXPECT_TRUE(cursor->ok());
  EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 7, 9}));

  // Wrong expectations are rejected at open: another shard's index, or
  // a stray from another campaign's config.
  EXPECT_FALSE(ShardCursor::open(path, 2, 0xabcd).has_value());
  EXPECT_FALSE(ShardCursor::open(path, 3, 0xbeef).has_value());

  // A re-run of the shard lands on the same name.
  EXPECT_EQ(store.write_shard(3, 0xbeef, {{4, sample_result(4)}}), path);
  EXPECT_FALSE(ShardCursor::open(path, 3, 0xabcd).has_value());
  EXPECT_TRUE(ShardCursor::open(path, 3, 0xbeef).has_value());
}

// A small shard of extended records: one per fault model, so every
// field of the record layout is off its default somewhere.
std::string write_mutation_shard(const ShardStore& store) {
  std::vector<ShardRecord> records;
  for (std::uint8_t model = 0; model <= 3; ++model) {
    inject::InjectionResult r = sample_result(model);
    r.spec.model = static_cast<inject::FaultModel>(model);
    r.spec.target_reg = model;
    r.spec.data_addr = 0x4000 + model;
    r.spec.data_index = 11u + model;
    r.spec.errno_value = 22u + model;
    r.data_addr = 0x5000 + model;
    r.syscalls_after = 3u + model;
    r.cascade_syscalls = model;
    records.push_back({model, r});
  }
  return store.write_shard(0, 0x5eed, records);
}

TEST(Store, CorruptedArtifactFailsVerificationAndIsDiscardable) {
  // Every single-bit flip of the artifact, each alone — a worker that
  // died mid-write or a disk that corrupted the file — fails to open.
  const std::string dir = fresh_dir("kfi_store_test_corrupt");
  ShardStore store(dir);
  const std::string path = write_mutation_shard(store);
  ASSERT_FALSE(path.empty());
  const std::optional<std::string> bytes = read_file_bytes(path);
  ASSERT_TRUE(bytes.has_value());
  std::size_t records = 0;
  {
    auto cursor = ShardCursor::open(path, 0, 0x5eed);
    ASSERT_TRUE(cursor.has_value());
    ShardRecord record;
    while (cursor->next(record)) ++records;
    ASSERT_TRUE(cursor->ok());
  }
  EXPECT_EQ(records, 4u);
  for (std::size_t bit = 0; bit < 8 * bytes->size(); ++bit) {
    std::string flipped = *bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_TRUE(atomic_write_file(path, flipped));
    EXPECT_FALSE(ShardCursor::open(path, 0, 0x5eed).has_value())
        << "bit " << bit;
  }

  store.discard_shard(0);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Store, TruncatedArtifactFailsVerification) {
  // Every cut of the artifact fails to open.
  const std::string dir = fresh_dir("kfi_store_test_trunc");
  ShardStore store(dir);
  const std::string path = write_mutation_shard(store);
  ASSERT_FALSE(path.empty());
  const auto size = std::filesystem::file_size(path);
  for (std::uintmax_t cut = size; cut-- > 0;) {
    std::filesystem::resize_file(path, cut);
    EXPECT_FALSE(ShardCursor::open(path, 0, 0x5eed).has_value())
        << "cut at " << cut << " of " << size;
  }
}

TEST(Store, MergeShardsYieldsAscendingSpecOrderAcrossShards) {
  const std::string dir = fresh_dir("kfi_store_test_merge");
  ShardStore store(dir);
  // Interleaved spec indices across three shards: 0,3,6 / 1,4 / 2,5.
  const std::string p0 =
      store.write_shard(0, 7, {{0, sample_result(0)},
                               {3, sample_result(3)},
                               {6, sample_result(6)}});
  const std::string p1 =
      store.write_shard(1, 7, {{1, sample_result(1)}, {4, sample_result(4)}});
  const std::string p2 =
      store.write_shard(2, 7, {{2, sample_result(2)}, {5, sample_result(5)}});
  ASSERT_FALSE(p0.empty() || p1.empty() || p2.empty());

  std::vector<ShardCursor> cursors;
  for (const auto& [path, index] :
       {std::pair{p0, 0u}, std::pair{p1, 1u}, std::pair{p2, 2u}}) {
    auto cursor = ShardCursor::open(path, index, 7);
    ASSERT_TRUE(cursor.has_value());
    cursors.push_back(std::move(*cursor));
  }
  std::vector<std::uint64_t> order;
  EXPECT_TRUE(merge_shards(cursors, [&](const ShardRecord& record) {
    order.push_back(record.spec_index);
    return true;
  }));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(Store, MergeRejectsDuplicateSpecIndices) {
  const std::string dir = fresh_dir("kfi_store_test_dup");
  ShardStore store(dir);
  const std::string p0 =
      store.write_shard(0, 7, {{0, sample_result(0)}, {2, sample_result(2)}});
  const std::string p1 =
      store.write_shard(1, 7, {{1, sample_result(1)}, {2, sample_result(9)}});
  std::vector<ShardCursor> cursors;
  auto c0 = ShardCursor::open(p0, 0, 7);
  auto c1 = ShardCursor::open(p1, 1, 7);
  ASSERT_TRUE(c0.has_value() && c1.has_value());
  cursors.push_back(std::move(*c0));
  cursors.push_back(std::move(*c1));
  EXPECT_FALSE(merge_shards(cursors, [](const ShardRecord&) { return true; }));
}

TEST(Store, MergeRejectsOutOfOrderRecordsInAShard) {
  // write_shard sorts its records, so an out-of-order file is forged:
  // the second record's spec index rewritten below the first's, and the
  // trailer resealed so the file opens.
  const std::string dir = fresh_dir("kfi_store_test_order");
  ShardStore store(dir);
  const std::string path =
      store.write_shard(0, 7, {{1, sample_result(1)}, {2, sample_result(2)}});
  std::string bytes = read_file_bytes(path).value();
  ByteWriter first;
  write_result(first, sample_result(1), /*extended=*/true);
  const std::size_t header = 4 + 4 + 8 + 8 + 8;
  const std::size_t second_index = header + 8 + first.size();
  const std::uint64_t earlier = 0;
  std::memcpy(&bytes[second_index], &earlier, 8);
  const std::uint64_t seal =
      content_hash(bytes.data(), bytes.size() - kSealBytes);
  std::memcpy(&bytes[bytes.size() - kSealBytes], &seal, kSealBytes);
  ASSERT_TRUE(atomic_write_file(path, bytes));

  std::vector<ShardCursor> cursors;
  auto cursor = ShardCursor::open(path, 0, 7);
  ASSERT_TRUE(cursor.has_value());
  cursors.push_back(std::move(*cursor));
  EXPECT_FALSE(merge_shards(cursors, [](const ShardRecord&) { return true; }));
}

TEST(Store, StreamingFoldRejectsGapsDuplicatesAndOverruns) {
  {
    StreamingFold fold({2}, false);
    EXPECT_TRUE(fold.add({0, sample_result(0)}));
    EXPECT_FALSE(fold.add({0, sample_result(0)}));  // duplicate
  }
  {
    StreamingFold fold({3}, false);
    EXPECT_TRUE(fold.add({0, sample_result(0)}));
    EXPECT_FALSE(fold.add({2, sample_result(2)}));  // gap at 1
  }
  {
    StreamingFold fold({1}, false);
    EXPECT_TRUE(fold.add({0, sample_result(0)}));
    EXPECT_TRUE(fold.complete());
    EXPECT_FALSE(fold.add({1, sample_result(1)}));  // overrun
  }
}

// The per-campaign counts come from an untrusted manifest: an inflated
// count must not size an allocation up front.  Slots grow only with
// records actually folded, so a short stream is simply incomplete.
TEST(Store, StreamingFoldDoesNotReserveManifestCounts) {
  std::unique_ptr<StreamingFold> fold;
  ASSERT_NO_THROW(fold = std::make_unique<StreamingFold>(
                      std::vector<std::uint64_t>{std::uint64_t{1} << 40},
                      /*materialize=*/true));
  EXPECT_TRUE(fold->add({0, sample_result(0)}));
  EXPECT_FALSE(fold->complete());
  ASSERT_EQ(fold->slots().size(), 1u);
  EXPECT_EQ(fold->slots()[0].size(), 1u);
}

}  // namespace
}  // namespace kfi::analysis
