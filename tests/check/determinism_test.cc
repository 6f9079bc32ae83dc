// Schedule-independence and machine-state determinism: the
// CampaignConfig.threads contract ("results are identical regardless of
// thread count") and the snapshot-restore property replay rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/expectations.h"
#include "check/replay.h"
#include "inject/campaign.h"
#include "inject/injector.h"
#include "machine/machine.h"
#include "profile/profile.h"
#include "workloads/workloads.h"

namespace kfi::check {
namespace {

using inject::Campaign;
using inject::CampaignRun;

TEST(check_determinism, CompareRunsFindsDivergence) {
  CampaignRun x;
  inject::InjectionResult r;
  r.spec.function = "pipe_read";
  r.outcome = inject::Outcome::DumpedCrash;
  x.results.push_back(r);
  CampaignRun y = x;
  EXPECT_TRUE(compare_runs(x, y).identical());

  y.results[0].outcome = inject::Outcome::NotManifested;
  const RunComparison diverged = compare_runs(x, y);
  EXPECT_FALSE(diverged.identical());
  ASSERT_EQ(diverged.mismatches.size(), 1u);
  EXPECT_EQ(diverged.mismatches[0].first, 0u);

  y.results.push_back(r);
  EXPECT_TRUE(compare_runs(x, y).size_mismatch);
}

// The CampaignConfig.threads contract: each worker owns a private
// Injector, so the result vector is a pure function of the target list.
TEST(check_determinism, ThreadCountDoesNotChangeResults) {
  const auto& prof = profile::default_profile();
  inject::CampaignConfig config = smoke_config(Campaign::IncorrectBranch);

  inject::Injector serial;
  config.threads = 1;
  const CampaignRun one = inject::run_campaign(serial, prof, config);

  inject::Injector threaded;
  config.threads = 4;
  const CampaignRun four = inject::run_campaign(threaded, prof, config);

  ASSERT_GT(one.results.size(), 10u);
  const RunComparison comparison = compare_runs(one, four);
  EXPECT_FALSE(comparison.size_mismatch);
  EXPECT_TRUE(comparison.identical())
      << comparison.mismatches.size() << " of " << comparison.compared
      << " results differ between threads=1 and threads=4; first at #"
      << (comparison.mismatches.empty() ? 0 : comparison.mismatches[0].first);
}

// The stronger shared-cache contract: threads=1 and threads=4 borrowing
// the *same* GoldenCache (so worker machines adopt one shared BootState
// and resume from one shared ladder) produce identical result vectors,
// under both execution engines.  The threads=4 run goes first on a
// fresh cache, so its pre-build on four threads must build each
// distinct workload exactly once, and the threads=1 run must build
// nothing.
TEST(check_determinism, SharedCacheThreadCountIdenticalBothEngines) {
  const auto& prof = profile::default_profile();
  inject::CampaignConfig config = smoke_config(Campaign::RandomNonBranch);
  std::set<std::string> workloads;
  for (const inject::InjectionSpec& spec :
       inject::campaign_targets(prof, config, nullptr)) {
    workloads.insert(spec.workload);
  }
  ASSERT_GT(workloads.size(), 1u);

  std::vector<CampaignRun> runs;
  for (const machine::ExecEngine engine :
       {machine::ExecEngine::Step, machine::ExecEngine::Chained}) {
    inject::InjectorOptions options;
    options.exec_engine = engine;
    auto cache = std::make_shared<inject::GoldenCache>(options);
    for (const unsigned threads : {4u, 1u}) {
      inject::Injector injector(cache);
      config.threads = threads;
      runs.push_back(inject::run_campaign(injector, prof, config));
      EXPECT_EQ(runs.back().stats.threads_used, threads);
      EXPECT_EQ(runs.back().stats.runs, runs.back().results.size());
      // The one shard rule: 8 shards per thread, capped by the runs.
      if (threads == 4) {
        EXPECT_EQ(runs.back().stats.shards,
                  std::min<std::uint64_t>(32, runs.back().results.size()));
      }
      EXPECT_EQ(cache->golden_builds(), workloads.size())
          << "threads=" << threads << " built a workload twice";
    }
  }
  ASSERT_EQ(runs.size(), 4u);
  ASSERT_GT(runs[0].results.size(), 10u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const RunComparison comparison = compare_runs(runs[0], runs[i]);
    EXPECT_FALSE(comparison.size_mismatch);
    EXPECT_TRUE(comparison.identical())
        << comparison.mismatches.size() << " of " << comparison.compared
        << " results differ between run 0 and run " << i;
  }
}

// Machine::state_digest covers every bit of machine state, and
// snapshot-restore brings all of it back: two identical runs from the
// same snapshot digest identically, and the digest is sensitive to a
// single flipped bit.
TEST(check_determinism, StateDigestReproducesAcrossRestore) {
  const disk::DiskImage root_disk = machine::make_root_disk();
  machine::Machine machine(kernel::built_kernel(),
                           workloads::built_workload("pipe"), root_disk);
  ASSERT_TRUE(machine.boot());
  // Enter the canonical post-restore state first (boot() leaves the
  // timer mid-phase; the injector always restore()s before running).
  machine.restore();
  const std::uint64_t boot_digest = machine.state_digest();

  machine.run(2'000'000);
  const std::uint64_t first_run = machine.state_digest();
  EXPECT_NE(first_run, boot_digest) << "running must change state";

  machine.restore();
  EXPECT_EQ(machine.state_digest(), boot_digest)
      << "restore must reproduce the snapshot bit-for-bit";

  machine.run(2'000'000);
  EXPECT_EQ(machine.state_digest(), first_run)
      << "the same run from the same snapshot must digest identically";
}

TEST(check_determinism, StateDigestSensitiveToSingleBit) {
  const disk::DiskImage root_disk = machine::make_root_disk();
  machine::Machine machine(kernel::built_kernel(),
                           workloads::built_workload("pipe"), root_disk);
  ASSERT_TRUE(machine.boot());
  const std::uint64_t before = machine.state_digest();
  machine.disk_image().bytes()[12345] ^= 0x01;
  EXPECT_NE(machine.state_digest(), before);
  machine.disk_image().bytes()[12345] ^= 0x01;
  EXPECT_EQ(machine.state_digest(), before);
}

}  // namespace
}  // namespace kfi::check
