// Campaign persistence round-trip tests.
#include "analysis/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "analysis/store.h"
#include "support/serial.h"

namespace kfi::analysis {
namespace {

using inject::Campaign;
using inject::CampaignRun;
using inject::CrashCause;
using inject::InjectionResult;
using inject::Outcome;
using inject::Severity;

CampaignRun sample_run() {
  CampaignRun run;
  run.campaign = Campaign::IncorrectBranch;
  run.functions_targeted = 3;
  InjectionResult r;
  r.spec.campaign = Campaign::IncorrectBranch;
  r.spec.function = "pipe_read";
  r.spec.subsystem = kernel::Subsystem::Fs;
  r.spec.instr_addr = 0xC0134567;
  r.spec.instr_len = 6;
  r.spec.byte_index = 1;
  r.spec.bit_index = 0;
  r.spec.workload = "pipe";
  r.outcome = Outcome::DumpedCrash;
  r.activation_cycle = 123456;
  r.cause = CrashCause::InvalidOpcode;
  r.crash_eip = 0xC0134570;
  r.crash_addr = 0x1B;
  r.crash_subsystem = kernel::Subsystem::Fs;
  r.propagated = false;
  r.latency_cycles = 7;
  r.severity = Severity::Severe;
  r.fs_damaged = true;
  r.bootable = false;
  r.repair_verified = true;
  r.disasm_before = "je c0134580";
  r.disasm_after = "jne c0134580";
  run.results.push_back(r);

  InjectionResult nm;
  nm.spec.function = "schedule";
  nm.spec.subsystem = kernel::Subsystem::Kernel;
  nm.spec.workload = "syscall";
  nm.outcome = Outcome::NotManifested;
  run.results.push_back(nm);
  return run;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(CampaignIo, SaveLoadRoundTrip) {
  const std::string path = temp_path("kfi_io_roundtrip.kfi");
  const CampaignRun original = sample_run();
  ASSERT_TRUE(save_campaign(original, path));

  const auto loaded = load_campaign(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->campaign, original.campaign);
  EXPECT_EQ(loaded->functions_targeted, original.functions_targeted);
  ASSERT_EQ(loaded->results.size(), original.results.size());

  const InjectionResult& a = original.results[0];
  const InjectionResult& b = loaded->results[0];
  EXPECT_EQ(b.spec.function, a.spec.function);
  EXPECT_EQ(b.spec.subsystem, a.spec.subsystem);
  EXPECT_EQ(b.spec.instr_addr, a.spec.instr_addr);
  EXPECT_EQ(b.spec.instr_len, a.spec.instr_len);
  EXPECT_EQ(b.spec.byte_index, a.spec.byte_index);
  EXPECT_EQ(b.spec.bit_index, a.spec.bit_index);
  EXPECT_EQ(b.spec.workload, a.spec.workload);
  EXPECT_EQ(b.outcome, a.outcome);
  EXPECT_EQ(b.activation_cycle, a.activation_cycle);
  EXPECT_EQ(b.cause, a.cause);
  EXPECT_EQ(b.crash_eip, a.crash_eip);
  EXPECT_EQ(b.crash_addr, a.crash_addr);
  EXPECT_EQ(b.crash_subsystem, a.crash_subsystem);
  EXPECT_EQ(b.propagated, a.propagated);
  EXPECT_EQ(b.latency_cycles, a.latency_cycles);
  EXPECT_EQ(b.severity, a.severity);
  EXPECT_EQ(b.fs_damaged, a.fs_damaged);
  EXPECT_EQ(b.bootable, a.bootable);
  EXPECT_EQ(b.repair_verified, a.repair_verified);
  EXPECT_EQ(b.disasm_before, a.disasm_before);
  EXPECT_EQ(b.disasm_after, a.disasm_after);
  std::remove(path.c_str());
}

TEST(CampaignIo, MissingFileLoadsNothing) {
  EXPECT_FALSE(load_campaign(temp_path("kfi_io_missing.kfi")).has_value());
}

TEST(CampaignIo, BadMagicRejected) {
  const std::string path = temp_path("kfi_io_badmagic.kfi");
  std::ofstream(path, std::ios::binary) << "not a campaign file at all";
  EXPECT_FALSE(load_campaign(path).has_value());
  std::remove(path.c_str());
}

TEST(CampaignIo, TruncatedFileRejected) {
  const std::string path = temp_path("kfi_io_trunc.kfi");
  ASSERT_TRUE(save_campaign(sample_run(), path));
  // Truncate the file mid-record.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  std::filesystem::resize_file(path, size / 2, ec);
  EXPECT_FALSE(load_campaign(path).has_value());
  std::remove(path.c_str());
}

TEST(CampaignIo, SaveToUnwritablePathFailsCleanly) {
  // Previously save_campaign never checked the stream, so a full or
  // missing target directory produced a silent half-written artifact.
  const std::string path = "/nonexistent-kfi-dir/run.kfi";
  EXPECT_FALSE(save_campaign(sample_run(), path));
  EXPECT_FALSE(std::filesystem::exists(path));
  // A directory is open()-able as a path string but not writable.
  EXPECT_FALSE(save_campaign(
      sample_run(), std::filesystem::temp_directory_path().string()));
}

TEST(CampaignIo, EmptyRunRoundTrips) {
  const std::string path = temp_path("kfi_io_empty.kfi");
  CampaignRun empty;
  empty.campaign = Campaign::RandomBranch;
  ASSERT_TRUE(save_campaign(empty, path));
  const auto loaded = load_campaign(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->campaign, Campaign::RandomBranch);
  EXPECT_TRUE(loaded->results.empty());
  std::remove(path.c_str());
}

// Overwrites the u64 record count in a saved .kfi (after the magic,
// version, campaign and functions_targeted fields).
void patch_record_count(const std::string& path, std::uint64_t count) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(20);
  f.write(reinterpret_cast<const char*>(&count), sizeof(count));
}

TEST(CampaignIo, InflatedRecordCountRejectedWithoutAllocating) {
  // A corrupted count used to be capped only at a fixed 100M and then
  // reserved: 99,999,999 records asked for tens of GB and aborted with
  // std::bad_alloc.  The count is now bounded by the bytes left in the
  // file, so the load fails cleanly before any reserve.
  const std::string path = temp_path("kfi_io_inflated.kfi");
  for (const std::uint64_t count :
       {std::uint64_t{3}, std::uint64_t{99'999'999},
        ~std::uint64_t{0}}) {
    SCOPED_TRACE(count);
    ASSERT_TRUE(save_campaign(sample_run(), path));
    patch_record_count(path, count);
    std::optional<CampaignRun> loaded;
    EXPECT_NO_THROW(loaded = load_campaign(path));
    EXPECT_FALSE(loaded.has_value());
  }
  std::remove(path.c_str());
}

TEST(CampaignIo, MinimumRecordSizeMatchesEncoding) {
  // The count bound is only sound if no record encodes smaller than
  // min_result_bytes: an all-empty record is exactly that size.
  for (const bool extended : {false, true}) {
    ByteWriter writer;
    write_result(writer, InjectionResult{}, extended);
    EXPECT_EQ(writer.size(), min_result_bytes(extended)) << extended;
  }
}

TEST(CampaignIo, BenchOptionDefaults) {
  char prog[] = "bench";
  char* argv[] = {prog};
  const BenchOptions options = parse_bench_options(1, argv);
  EXPECT_EQ(options.repeats, 1);
  EXPECT_EQ(options.seed, 2003u);
  EXPECT_TRUE(options.use_cache);
}

TEST(CampaignIo, BenchOptionParsing) {
  char prog[] = "bench";
  char scale[] = "--scale";
  char three[] = "3";
  char seed[] = "--seed";
  char val[] = "42";
  char nocache[] = "--no-cache";
  char quiet[] = "--quiet";
  char* argv[] = {prog, scale, three, seed, val, nocache, quiet};
  const BenchOptions options = parse_bench_options(7, argv);
  EXPECT_EQ(options.repeats, 3);
  EXPECT_EQ(options.seed, 42u);
  EXPECT_FALSE(options.use_cache);
  EXPECT_FALSE(options.verbose);

  // --jobs is a synonym of --threads: it sets the campaign's worker
  // count, the one field every bench and `kfi_check shape full` read.
  char jobs_flag[] = "--jobs";
  char jobs_value[] = "3";
  char* jobs_argv[] = {prog, jobs_flag, jobs_value};
  EXPECT_EQ(parse_bench_options(3, jobs_argv).threads, 3u);
}

}  // namespace
}  // namespace kfi::analysis
