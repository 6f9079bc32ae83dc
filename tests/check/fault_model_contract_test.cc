// The smoke-triple contracts: the A/B/C instruction-bit triple and the
// D/E/F fault-model triple (register, kernel-data and syscall-errno
// faults), both at seed 2003, reproduce the committed kfibench
// reference records one for one at threads 1 and 4, and fold to their
// pinned digests.  A/B/C also matches them with the forensics trace
// attached, and on one thread builds, enters and chains Chained-engine
// traces a pinned number of times.  D/E/F on one thread takes the
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
#include "trace/trace.h"

namespace kfi::check {
namespace {

using inject::Campaign;
using inject::CampaignRun;

constexpr std::uint64_t kAbcFold = 0x54fdd95d1638c920ULL;
constexpr std::uint64_t kDefFold = 0x9888393f152a05c3ULL;

struct Triple {
  Campaign campaigns[3];
  char first_letter;
  std::uint64_t fold;
};

constexpr Triple kAbc = {{Campaign::RandomNonBranch, Campaign::RandomBranch,
                          Campaign::IncorrectBranch},
                         'A',
                         kAbcFold};
constexpr Triple kDef = {{Campaign::RegisterFile, Campaign::KernelData,
                          Campaign::SyscallErrno},
                         'D',
                         kDefFold};

std::string reference_path(char letter) {
  return std::string(KFI_SOURCE_DIR) + "/kfibench/refs/campaign_" + letter +
         "_r1_s2003_kc6cb2604.kfi";
}

std::vector<CampaignRun> run_triple(const Triple& triple,
                                    inject::Injector& injector,
                                    unsigned threads) {
  std::vector<CampaignRun> runs;
  for (const Campaign campaign : triple.campaigns) {
    inject::CampaignConfig config = smoke_config(campaign);
    config.threads = threads;
    runs.push_back(
        inject::run_campaign(injector, profile::default_profile(), config));
  }
  return runs;
}

void expect_references(const Triple& triple,
                       const std::vector<CampaignRun>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const char letter = static_cast<char>(triple.first_letter + i);
    const auto reference = analysis::load_campaign(reference_path(letter));
    ASSERT_TRUE(reference.has_value()) << reference_path(letter);
    const RunComparison comparison = compare_runs(*reference, runs[i]);
    EXPECT_FALSE(comparison.size_mismatch) << "campaign " << letter;
    EXPECT_TRUE(comparison.identical())
        << "campaign " << letter << ": " << comparison.mismatches.size()
        << " of " << comparison.compared << " records differ";
  }
  EXPECT_EQ(analysis::results_digest(runs), triple.fold);
}

TEST(FaultModelContract, SmokeAbcMatchesReferencesOnOneThread) {
  inject::Injector injector;
  const std::vector<CampaignRun> runs = run_triple(kAbc, injector, 1);
  expect_references(kAbc, runs);

  // Where the Chained engine builds, enters, invalidates and chains its
  // traces, and how many fused groups it runs or declines, is
  // deterministic on any host, so a dispatch or guard change fails
  // here even when every record survives.  The stepper builds no
  // traces at all.  One machine runs all four workloads, so its one
  // trace cache carries kernel traces across workload switches.
  inject::CampaignStats totals;
  for (const CampaignRun& run : runs) totals += run.stats;
  EXPECT_EQ(totals.machines, 1u);
  const machine::PerfStats& perf = totals.perf;
  const bool chained =
      inject::InjectorOptions{}.exec_engine == machine::ExecEngine::Chained;
  EXPECT_EQ(perf.block_builds, chained ? 81766u : 0u);
  EXPECT_EQ(perf.block_hits, chained ? 18457879u : 0u);
  EXPECT_EQ(perf.block_fallbacks, chained ? 12816u : 0u);
  EXPECT_EQ(perf.block_invalidations, chained ? 65288u : 0u);
  EXPECT_EQ(perf.block_ops, chained ? 514772046u : 0u);
  EXPECT_EQ(perf.chain_follows, chained ? 18375649u : 0u);
  EXPECT_EQ(perf.chain_breaks, chained ? 46366u : 0u);
  EXPECT_EQ(perf.fused_groups, chained ? 57983098u : 0u);
  EXPECT_EQ(perf.fused_declines, chained ? 46818u : 0u);
}

TEST(FaultModelContract, SmokeAbcMatchesReferencesOnFourThreads) {
  inject::Injector injector;
  expect_references(kAbc, run_triple(kAbc, injector, 4));
}

// Recording is strictly observational: with a trace attached, every
// record still equals the reference.
TEST(FaultModelContract, SmokeAbcMatchesReferencesWithTraceAttached) {
  inject::InjectorOptions options;
  options.trace_capacity = trace::TraceBuffer::kDefaultCapacity;
  inject::Injector injector(options);
  const std::vector<CampaignRun> runs = run_triple(kAbc, injector, 1);
  expect_references(kAbc, runs);
  inject::CampaignStats totals;
  for (const CampaignRun& run : runs) totals += run.stats;
  EXPECT_GT(totals.perf.trace_events, 0u);
}

TEST(FaultModelContract, SmokeTripleMatchesReferencesOnOneThread) {
  inject::Injector injector;
  const std::vector<CampaignRun> runs = run_triple(kDef, injector, 1);
  expect_references(kDef, runs);

  // D/E runs at sites the golden run never executes, pruned unrun.
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    for (const inject::InjectionResult& r : runs[i].results) {
      if (injector.first_touch(r.spec.workload).count(r.spec.instr_addr) ==
          0) {
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
  expect_references(kDef, run_triple(kDef, injector, 4));
}

}  // namespace
}  // namespace kfi::check
