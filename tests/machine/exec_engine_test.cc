// Machine-level cross-engine identity: whole golden runs, checkpoint
// ladders, and a smoke injection campaign executed under
// ExecEngine::Step and ExecEngine::Chained must produce bit-identical
// run-visible state — state_digest(), console, cycle counts, exits —
// plus identical TLB-fill histories (the chained engine's inline
// translate cache and the CPU's inline data path may only skip
// provable TLB hits) and bit-exact timer delivery under adversarial
// tick periods.  Also pins the strict KFI_EXEC parser.
#include "machine/machine.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

#include "check/expectations.h"
#include "check/replay.h"
#include "inject/campaign.h"
#include "profile/profile.h"

namespace kfi::machine {
namespace {

constexpr std::uint64_t kRunBudget = 30'000'000;

std::unique_ptr<Machine> make_machine(const std::string& workload,
                                      ExecEngine engine) {
  static const disk::DiskImage root_disk = make_root_disk();
  MachineOptions options;
  options.exec_engine = engine;
  return std::make_unique<Machine>(kernel::built_kernel(),
                                   workloads::built_workload(workload),
                                   root_disk, options);
}

TEST(ExecEngine, GoldenRunIdenticalAcrossEngines) {
  auto step_m = make_machine("syscall", ExecEngine::Step);
  ASSERT_TRUE(step_m->boot()) << step_m->console_output();
  const RunResult a = step_m->run(kRunBudget);
  ASSERT_EQ(a.exit, RunExit::Completed);
  EXPECT_EQ(step_m->perf_stats().block_ops, 0u);

  auto chain_m = make_machine("syscall", ExecEngine::Chained);
  ASSERT_TRUE(chain_m->boot()) << chain_m->console_output();
  const RunResult b = chain_m->run(kRunBudget);
  ASSERT_EQ(b.exit, RunExit::Completed);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(step_m->cpu().cycles(), chain_m->cpu().cycles());
  EXPECT_EQ(step_m->console_output(), chain_m->console_output());
  EXPECT_EQ(step_m->state_digest(), chain_m->state_digest());
  // The chained machine actually used its engine.
  const PerfStats stats = chain_m->perf_stats();
  EXPECT_GT(stats.block_ops, 0u);
  EXPECT_GT(stats.chain_follows, 0u);
  // TLB-fill determinism: the MMU epoch counts every TLB mutation
  // (fills and flushes).  The chained engine's inline translate cache
  // and the block builder's non-filling Mmu::peek must leave the fill
  // history bit-identical to the stepper's.
  EXPECT_EQ(step_m->cpu().mmu().epoch(), chain_m->cpu().mmu().epoch());
}

TEST(ExecEngine, CheckpointLadderIdenticalAcrossEngines) {
  auto step_m = make_machine("syscall", ExecEngine::Step);
  ASSERT_TRUE(step_m->boot());

  // Place rungs inside the actual golden run length (capture replays
  // from the post-boot snapshot, so this probe run costs nothing).
  const std::uint64_t base = step_m->snapshot_cycles();
  ASSERT_EQ(step_m->run(kRunBudget).exit, RunExit::Completed);
  const std::uint64_t total = step_m->cpu().cycles() - base;
  ASSERT_GT(total, 100u);
  const std::vector<std::uint64_t> rungs = {
      base + total / 8, base + total / 3, base + (2 * total) / 3};
  std::vector<Checkpoint> cks_a;
  step_m->capture_ladder(rungs, kRunBudget, cks_a);

  auto chain_m = make_machine("syscall", ExecEngine::Chained);
  ASSERT_TRUE(chain_m->boot());
  // Every rung cycle falls mid-chain somewhere in the hot loop: the
  // dispatch must still stop on the exact cycle.
  std::vector<Checkpoint> cks_b;
  chain_m->capture_ladder(rungs, kRunBudget, cks_b);
  ASSERT_EQ(cks_a.size(), cks_b.size());
  for (std::size_t i = 0; i < cks_a.size(); ++i) {
    // Rungs land on the identical loop-top cycle, with identical
    // register file and deltas, regardless of engine.
    EXPECT_EQ(cks_a[i].cycle, cks_b[i].cycle) << "rung " << i;
    EXPECT_EQ(cks_a[i].eip, cks_b[i].eip) << "rung " << i;
    EXPECT_EQ(cks_a[i].flags, cks_b[i].flags) << "rung " << i;
    EXPECT_EQ(cks_a[i].timer_pending, cks_b[i].timer_pending)
        << "rung " << i;
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(cks_a[i].regs[r], cks_b[i].regs[r]) << "rung " << i;
    }
  }

  // Resuming each machine from its own mid-run rung continues on the
  // same timeline — the mid-chain rung restore severs any stale chains
  // via the page-version bumps.
  ASSERT_GE(cks_a.size(), 2u);
  CheckpointMemo memo_a;
  CheckpointMemo memo_b;
  step_m->restore_checkpoint(cks_a[1], memo_a);
  chain_m->restore_checkpoint(cks_b[1], memo_b);
  const RunResult ra = step_m->run(kRunBudget);
  const RunResult rb = chain_m->run(kRunBudget);
  EXPECT_EQ(ra.exit, rb.exit);
  EXPECT_EQ(step_m->state_digest(), chain_m->state_digest());
}

TEST(ExecEngine, SmokeCampaignIdenticalAcrossEngines) {
  inject::InjectorOptions step_options;
  step_options.exec_engine = ExecEngine::Step;
  inject::Injector step_inj(step_options);
  const inject::CampaignRun a = inject::run_campaign(
      step_inj, profile::default_profile(),
      check::smoke_config(inject::Campaign::RandomNonBranch));

  inject::InjectorOptions chain_options;
  chain_options.exec_engine = ExecEngine::Chained;
  inject::Injector chain_inj(chain_options);
  const inject::CampaignRun b = inject::run_campaign(
      chain_inj, profile::default_profile(),
      check::smoke_config(inject::Campaign::RandomNonBranch));

  const check::RunComparison cmp = check::compare_runs(a, b);
  EXPECT_TRUE(cmp.identical())
      << cmp.mismatches.size() << " mismatches of " << cmp.compared;
  std::size_t shown = 0;
  for (const auto& [index, diffs] : cmp.mismatches) {
    for (const check::FieldDiff& d : diffs) {
      ADD_FAILURE() << "result " << index << " field " << d.field
                    << ": step=" << d.recorded << " chained=" << d.replayed;
    }
    if (++shown == 3) break;
  }
  EXPECT_GT(chain_inj.perf_stats().block_ops, 0u);
  EXPECT_GT(chain_inj.perf_stats().chain_follows, 0u);
}

// Timer ticks must be delivered on bit-identical cycles even when a
// tick boundary lands exactly on a chain-follow edge.  Odd, mutually
// prime periods sweep the tick phase across every block/chain boundary
// in the golden run; the digest comparison catches any drift.
TEST(ExecEngine, TimerPeriodSweepChainedMatchesStep) {
  static const disk::DiskImage root_disk = make_root_disk();
  for (const std::uint32_t period : {977u, 1361u}) {
    SCOPED_TRACE(period);
    std::uint64_t digests[2];
    std::uint64_t cycles[2];
    int i = 0;
    for (const ExecEngine engine : {ExecEngine::Step, ExecEngine::Chained}) {
      MachineOptions options;
      options.exec_engine = engine;
      options.timer_period = period;
      Machine m(kernel::built_kernel(), workloads::built_workload("pipe"),
                root_disk, options);
      ASSERT_TRUE(m.boot()) << m.console_output();
      ASSERT_EQ(m.run(kRunBudget).exit, RunExit::Completed);
      digests[i] = m.state_digest();
      cycles[i] = m.cpu().cycles();
      if (engine != ExecEngine::Step) {
        EXPECT_GT(m.perf_stats().chain_follows, 0u);
      }
      ++i;
    }
    EXPECT_EQ(digests[0], digests[1]) << "state diverged at period " << period;
    EXPECT_EQ(cycles[0], cycles[1]) << "cycles diverged at period " << period;
  }
}

TEST(ExecEngine, DefaultsFromEnvironment) {
  // The KFI_EXEC matrix legs in CI rely on this default.
  const std::optional<ExecEngine> expected =
      parse_exec_engine(std::getenv("KFI_EXEC"));
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(default_exec_engine(), *expected);
  EXPECT_EQ(MachineOptions{}.exec_engine, *expected);
}

TEST(ExecEngine, ParserAcceptsOnlyStepAndChained) {
  // Unset or empty selects the chained engine; the stepper (the
  // semantic oracle) only by name.
  EXPECT_EQ(parse_exec_engine(nullptr), ExecEngine::Chained);
  EXPECT_EQ(parse_exec_engine(""), ExecEngine::Chained);
  EXPECT_EQ(parse_exec_engine("step"), ExecEngine::Step);
  EXPECT_EQ(parse_exec_engine("chained"), ExecEngine::Chained);
  // Engine names from older builds and near-misses are rejected, never
  // silently mapped to an engine.
  for (const char* bad : {"block", "threaded", "memfast", "Chained", "step ",
                          "chain", "1", "garbage"}) {
    EXPECT_FALSE(parse_exec_engine(bad).has_value()) << bad;
  }
}

TEST(ExecEngine, UnknownEnvironmentValueStopsTheProcess) {
  EXPECT_EXIT(
      {
        setenv("KFI_EXEC", "memfast", 1);
        default_exec_engine();
      },
      ::testing::ExitedWithCode(2),
      "KFI_EXEC=memfast.*\"step\".*\"chained\"");
}

}  // namespace
}  // namespace kfi::machine
