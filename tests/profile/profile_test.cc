// Profiler tests: kernprof-analog sampling, core-function selection,
// Table 1 shape, and workload->function attribution.
#include "profile/profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "workloads/workloads.h"

namespace kfi::profile {
namespace {

const ProfileResult& profile() { return default_profile(); }

TEST(Profile, CollectsKernelSamples) {
  EXPECT_GT(profile().total_kernel_samples, 1000u);
  EXPECT_GT(profile().functions.size(), 20u);
}

TEST(Profile, FunctionsSortedBySamplesDescending) {
  const auto& functions = profile().functions;
  for (std::size_t i = 1; i < functions.size(); ++i) {
    EXPECT_GE(functions[i - 1].samples, functions[i].samples);
  }
}

TEST(Profile, CoreFunctionsCover95Percent) {
  const auto core = profile().core_functions(0.95);
  EXPECT_FALSE(core.empty());
  EXPECT_LT(core.size(), profile().functions.size())
      << "some functions should fall outside the core set";
  std::uint64_t covered = 0;
  for (const std::string& name : core) {
    covered += profile().find(name)->samples;
  }
  EXPECT_GE(static_cast<double>(covered),
            0.95 * static_cast<double>(profile().total_kernel_samples));
}

TEST(Profile, HotPathsAreProfiled) {
  // Functions that must show up given our workloads.
  for (const char* name : {"pipe_read", "pipe_write", "schedule",
                           "do_generic_file_read", "memcpy"}) {
    const FunctionSamples* fs = profile().find(name);
    EXPECT_NE(fs, nullptr) << name;
  }
}

TEST(Profile, BestWorkloadAttribution) {
  // The file-read path should be attributed to fstime, pipes to
  // pipe/context1.
  const std::string file_read = profile().best_workload("do_generic_file_read");
  EXPECT_EQ(file_read, "fstime");
  const std::string pipe_wl = profile().best_workload("pipe_write");
  EXPECT_TRUE(pipe_wl == "pipe" || pipe_wl == "context1") << pipe_wl;
}

TEST(Profile, Table1HasMultipleSubsystems) {
  const auto rows = profile().table1(0.95);
  EXPECT_GE(rows.size(), 4u);
  std::size_t total_core = 0;
  bool has_fs = false;
  bool has_mm = false;
  for (const auto& row : rows) {
    total_core += row.core_functions;
    if (row.subsystem == kernel::Subsystem::Fs) has_fs = row.profiled_functions > 3;
    if (row.subsystem == kernel::Subsystem::Mm) has_mm = row.profiled_functions > 3;
    EXPECT_GE(row.profiled_functions, row.core_functions);
  }
  EXPECT_TRUE(has_fs);
  EXPECT_TRUE(has_mm);
  EXPECT_EQ(total_core, profile().core_functions(0.95).size());
}

TEST(Profile, WorkloadCyclesRecorded) {
  for (const kfi::workloads::Workload& w : kfi::workloads::all_workloads()) {
    const auto it = profile().workload_cycles.find(w.name);
    ASSERT_NE(it, profile().workload_cycles.end()) << w.name;
    EXPECT_GT(it->second, 10'000u) << w.name;
    EXPECT_LT(it->second, 40'000'000u) << w.name;
  }
}

// FNV-1a over every function's name, samples and per-workload split,
// then every workload's golden length.
std::uint64_t profile_hash(const ProfileResult& p) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix_u64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ULL;
    }
  };
  const auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    for (const char c : s) mix_u64(static_cast<unsigned char>(c));
  };
  for (const FunctionSamples& fs : p.functions) {
    mix_str(fs.function);
    mix_u64(fs.samples);
    mix_u64(fs.by_workload.size());
    for (const auto& [workload, samples] : fs.by_workload) {
      mix_str(workload);
      mix_u64(samples);
    }
  }
  for (const auto& [workload, cycles] : p.workload_cycles) {
    mix_str(workload);
    mix_u64(cycles);
  }
  return h;
}

TEST(Profile, DefaultProfileIsPinned) {
  // The profile picks every campaign's target functions and workloads:
  // a change to how it boots or samples must not move one sample.
  EXPECT_EQ(profile_hash(profile()), 0x5ef78055fc6340b3ULL)
      << std::hex << profile_hash(profile());
}

TEST(Profile, UnknownFunctionQueries) {
  EXPECT_EQ(profile().find("no_such_function"), nullptr);
  EXPECT_EQ(profile().best_workload("no_such_function"), "");
}

}  // namespace
}  // namespace kfi::profile
