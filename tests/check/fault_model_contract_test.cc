// The smoke D/E/F contract: the fault-model smoke triple (register,
// kernel-data and syscall-errno faults at seed 2003) reproduces the
// committed kfibench reference records one for one at threads 1 and 4,
// folds to the pinned D/E/F digest, and on one thread takes the
// coverage prune, the shadow ladders, golden reconvergence and its
// dead-byte masking a pinned number of times (DESIGN.md §7 and §15).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/io.h"
#include "analysis/store.h"
#include "check/expectations.h"
#include "check/replay.h"
#include "inject/campaign.h"
#include "inject/injector.h"
#include "profile/profile.h"

namespace kfi::check {
namespace {

using inject::Campaign;
using inject::CampaignRun;

constexpr std::uint64_t kDefFold = 0x9888393f152a05c3ULL;

std::string reference_path(char letter) {
  return std::string(KFI_SOURCE_DIR) + "/kfibench/refs/campaign_" + letter +
         "_r1_s2003_kc6cb2604.kfi";
}

std::vector<CampaignRun> run_triple(inject::Injector& injector,
                                    unsigned threads) {
  std::vector<CampaignRun> runs;
  for (const Campaign campaign :
       {Campaign::RegisterFile, Campaign::KernelData, Campaign::SyscallErrno}) {
    inject::CampaignConfig config = smoke_config(campaign);
    config.threads = threads;
    runs.push_back(
        inject::run_campaign(injector, profile::default_profile(), config));
  }
  return runs;
}

void expect_references(const std::vector<CampaignRun>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const char letter = static_cast<char>('D' + i);
    const auto reference = analysis::load_campaign(reference_path(letter));
    ASSERT_TRUE(reference.has_value()) << reference_path(letter);
    const RunComparison comparison = compare_runs(*reference, runs[i]);
    EXPECT_FALSE(comparison.size_mismatch) << "campaign " << letter;
    EXPECT_TRUE(comparison.identical())
        << "campaign " << letter << ": " << comparison.mismatches.size()
        << " of " << comparison.compared << " records differ";
  }
  EXPECT_EQ(analysis::results_digest(runs), kDefFold);
}

TEST(FaultModelContract, SmokeTripleMatchesReferencesOnOneThread) {
  inject::Injector injector;
  const std::vector<CampaignRun> runs = run_triple(injector, 1);
  expect_references(runs);

  // D/E runs at sites the golden run never executes, pruned unrun.
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    for (const inject::InjectionResult& r : runs[i].results) {
      if (injector.coverage(r.spec.workload).count(r.spec.instr_addr) == 0) {
        EXPECT_EQ(r.outcome, inject::Outcome::NotActivated);
        ++pruned;
      }
    }
  }
  EXPECT_EQ(pruned, 62u);

  inject::CampaignStats totals;
  for (const CampaignRun& run : runs) totals += run.stats;
  EXPECT_EQ(totals.ticks_dropped, 200u);
  EXPECT_EQ(totals.shadow_builds, 3u);
  EXPECT_EQ(totals.shadow_reconverged, 120u);
  EXPECT_EQ(totals.reconverged - totals.shadow_reconverged, 313u);
  // Golden matches that masked a flipped data byte still differing
  // from the rung, dead there in the golden run.
  EXPECT_EQ(totals.dead_byte_reconverged, 161u);
  EXPECT_GT(totals.shadow_build_cycles, 0u);
  EXPECT_LT(totals.shadow_build_cycles, totals.post_trigger_cycles);
}

TEST(FaultModelContract, SmokeTripleMatchesReferencesOnFourThreads) {
  inject::Injector injector;
  expect_references(run_triple(injector, 4));
}

}  // namespace
}  // namespace kfi::check
