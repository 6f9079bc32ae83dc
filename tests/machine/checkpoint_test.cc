// Checkpoint-ladder equivalence: resuming from any golden-run
// checkpoint must continue the exact deterministic timeline a
// straight-line run from the post-boot snapshot follows — the
// state_digest proves bit-identity of registers, RAM, disk, console,
// and the cycle counter.
#include "machine/machine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "inject/campaign.h"
#include "check/expectations.h"
#include "check/replay.h"
#include "profile/profile.h"

namespace kfi::machine {
namespace {

constexpr std::uint64_t kBudget = 30'000'000;

std::unique_ptr<Machine> make_machine(const std::string& workload) {
  static const disk::DiskImage root_disk = make_root_disk();
  return std::make_unique<Machine>(kernel::built_kernel(),
                                   workloads::built_workload(workload),
                                   root_disk);
}

TEST(Checkpoint, EveryRungResumesBitIdentically) {
  auto machine = make_machine("pipe");
  ASSERT_TRUE(machine->boot()) << machine->console_output();
  const std::uint64_t start = machine->snapshot_cycles();

  machine->restore();
  const RunResult straight = machine->run(kBudget);
  ASSERT_EQ(straight.exit, RunExit::Completed);
  const std::uint64_t end_digest = machine->state_digest();
  const std::uint64_t length = machine->cpu().cycles() - start;

  std::vector<std::uint64_t> at;
  for (int k = 1; k <= 8; ++k) at.push_back(start + length * k / 9);
  std::vector<Checkpoint> ladder;
  EXPECT_EQ(machine->capture_ladder(at, kBudget, ladder).exit,
            RunExit::Completed);
  ASSERT_EQ(ladder.size(), at.size());

  for (Checkpoint& rung : ladder) {
    ASSERT_GE(rung.cycle, start);
    ASSERT_LT(rung.cycle, start + length);
    CheckpointMemo memo;
    machine->restore_checkpoint(rung, memo);
    ASSERT_EQ(machine->cpu().cycles(), rung.cycle);
    // Same absolute watchdog deadline as the straight-line run, so the
    // continuation is the identical execution.
    const RunResult resumed = machine->run(kBudget - (rung.cycle - start));
    EXPECT_EQ(resumed.exit, RunExit::Completed);
    EXPECT_EQ(machine->state_digest(), end_digest)
        << "rung at cycle " << rung.cycle;
  }
}

TEST(Checkpoint, RungToNextRungMatchesStraightLine) {
  auto machine = make_machine("syscall");
  ASSERT_TRUE(machine->boot()) << machine->console_output();
  const std::uint64_t start = machine->snapshot_cycles();

  machine->restore();
  const RunResult straight = machine->run(kBudget);
  ASSERT_EQ(straight.exit, RunExit::Completed);
  const std::uint64_t length = machine->cpu().cycles() - start;

  std::vector<std::uint64_t> at;
  for (int k = 1; k <= 6; ++k) at.push_back(start + length * k / 7);
  std::vector<Checkpoint> ladder;
  machine->capture_ladder(at, kBudget, ladder);
  ASSERT_EQ(ladder.size(), at.size());

  // A second capture pass lands on the identical rungs: each rung's
  // digest-after-restore must match between the two ladders.
  std::vector<Checkpoint> again;
  machine->capture_ladder(at, kBudget, again);
  ASSERT_EQ(again.size(), ladder.size());
  std::vector<CheckpointMemo> ladder_memos(ladder.size());
  std::vector<CheckpointMemo> again_memos(again.size());
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    EXPECT_EQ(again[i].cycle, ladder[i].cycle);
    machine->restore_checkpoint(ladder[i], ladder_memos[i]);
    const std::uint64_t from_first = machine->state_digest();
    machine->restore_checkpoint(again[i], again_memos[i]);
    EXPECT_EQ(machine->state_digest(), from_first) << "rung " << i;
  }
}

TEST(Checkpoint, DirtyAndFullRestoreDigestIdentically) {
  // restore() copies back only the dirty pages and blocks; adopt_boot()
  // on a fresh machine always copies the whole RAM and disk image.
  auto dirty = make_machine("fstime");
  ASSERT_TRUE(dirty->boot());

  for (const std::uint64_t budget :
       {std::uint64_t{50'000}, std::uint64_t{400'000}, kBudget}) {
    dirty->restore();
    auto full = make_machine("fstime");
    full->adopt_boot(dirty->boot_state());
    EXPECT_EQ(dirty->state_digest(), full->state_digest());
    dirty->run(budget);
    full->run(budget);
    EXPECT_EQ(dirty->state_digest(), full->state_digest())
        << "budget " << budget;
  }
}

TEST(Checkpoint, LadderDoesNotChangeCampaignResults) {
  const auto& prof = profile::default_profile();
  const inject::CampaignConfig config =
      check::smoke_config(inject::Campaign::RandomNonBranch);

  inject::InjectorOptions with_ladder;
  ASSERT_GT(with_ladder.checkpoints, 0);
  inject::Injector ladder_injector(with_ladder);
  const inject::CampaignRun ladder =
      inject::run_campaign(ladder_injector, prof, config);
  EXPECT_GT(ladder_injector.stats().checkpoint_hits, 0u);

  inject::InjectorOptions no_ladder;
  no_ladder.checkpoints = 0;
  inject::Injector baseline_injector(no_ladder);
  const inject::CampaignRun baseline =
      inject::run_campaign(baseline_injector, prof, config);
  EXPECT_EQ(baseline_injector.stats().checkpoint_hits, 0u);

  const check::RunComparison comparison =
      check::compare_runs(ladder, baseline);
  EXPECT_TRUE(comparison.identical())
      << comparison.mismatches.size() << " of " << comparison.compared
      << " results differ between ladder and baseline execution";
}

}  // namespace
}  // namespace kfi::machine
