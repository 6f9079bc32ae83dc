// Whole-machine tests: boot the kernel, run every workload to clean
// completion, verify console output determinism, snapshot/restore, and
// file-system effects.
#include "machine/machine.h"

#include <gtest/gtest.h>

#include "fsutil/kfs.h"

namespace kfi::machine {
namespace {

constexpr std::uint64_t kRunBudget = 30'000'000;

std::unique_ptr<Machine> make_machine(const std::string& workload) {
  static const disk::DiskImage root_disk = make_root_disk();
  auto machine = std::make_unique<Machine>(kernel::built_kernel(),
                                           workloads::built_workload(workload),
                                           root_disk);
  return machine;
}

TEST(Machine, KernelBoots) {
  auto machine = make_machine("syscall");
  ASSERT_TRUE(machine->boot())
      << "console so far:\n" << machine->console_output();
  EXPECT_NE(machine->console_output().find("kfi-linux"), std::string::npos);
}

TEST(Machine, RunToEntryStopsWhereBootCaptures) {
  // The profiler's run to the entry breakpoint captures nothing, but
  // leaves the machine in exactly the state boot() snapshots.
  for (const char* workload : {"syscall", "spawn"}) {
    SCOPED_TRACE(workload);
    auto booted = make_machine(workload);
    auto ran = make_machine(workload);
    ASSERT_TRUE(booted->boot());
    ASSERT_TRUE(ran->run_to_entry());
    EXPECT_EQ(ran->boot_state(), nullptr);
    EXPECT_EQ(ran->cpu().eip(), workloads::built_workload(workload).entry);
    EXPECT_EQ(ran->state_digest(), booted->state_digest());
    // And it runs on as the booted machine does.
    EXPECT_EQ(ran->run(kRunBudget).exit, RunExit::Completed);
    EXPECT_EQ(booted->run(kRunBudget).exit, RunExit::Completed);
    EXPECT_EQ(ran->state_digest(), booted->state_digest());
  }
}

struct WorkloadCase {
  const char* name;
  const char* expect_in_output;
};

// Print the case by workload name. Without this gtest prints the raw bytes
// of the two pointers, so the listed test name changed with every address
// layout and no two builds agreed on it.
void PrintTo(const WorkloadCase& c, std::ostream* os) { *os << c.name; }

class WorkloadRuns : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadRuns, RunsToCleanCompletion) {
  const WorkloadCase& param = GetParam();
  auto machine = make_machine(param.name);
  ASSERT_TRUE(machine->boot()) << machine->console_output();
  const RunResult result = machine->run(kRunBudget);
  EXPECT_EQ(result.exit, RunExit::Completed)
      << "exit=" << static_cast<int>(result.exit)
      << " crash cause=" << result.crash.cause
      << " addr=" << std::hex << result.crash.fault_addr
      << " eip=" << result.crash.eip
      << "\nconsole:\n" << machine->console_output();
  EXPECT_EQ(result.exit_code, 0u) << machine->console_output();
  EXPECT_NE(machine->console_output().find(param.expect_in_output),
            std::string::npos)
      << machine->console_output();
  // The file system must be clean after a healthy run.
  EXPECT_EQ(fsutil::fsck(machine->disk_image()).verdict,
            fsutil::FsckVerdict::Clean);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadRuns,
    ::testing::Values(WorkloadCase{"syscall", "syscall: "},
                      WorkloadCase{"pipe", "pipe: "},
                      WorkloadCase{"context1", "context1: 40"},
                      WorkloadCase{"spawn", "spawn: "},
                      WorkloadCase{"fstime", "fstime rw: "},
                      WorkloadCase{"dhry", "dhry: "},
                      WorkloadCase{"hanoi", "hanoi: 2047"},
                      WorkloadCase{"looper", "looper: "},
                      WorkloadCase{"netio", "netio: "}),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
      return std::string(info.param.name);
    });

TEST(Machine, OutputIsDeterministic) {
  auto a = make_machine("fstime");
  auto b = make_machine("fstime");
  ASSERT_TRUE(a->boot());
  ASSERT_TRUE(b->boot());
  a->run(kRunBudget);
  b->run(kRunBudget);
  EXPECT_EQ(a->console_output(), b->console_output());
  EXPECT_EQ(fsutil::tree_digest(a->disk_image()),
            fsutil::tree_digest(b->disk_image()));
}

TEST(Machine, RestoreReplaysIdentically) {
  auto machine = make_machine("pipe");
  ASSERT_TRUE(machine->boot());
  const RunResult first = machine->run(kRunBudget);
  ASSERT_EQ(first.exit, RunExit::Completed);
  const std::string output1 = machine->console_output();

  machine->restore();
  const RunResult second = machine->run(kRunBudget);
  EXPECT_EQ(second.exit, RunExit::Completed);
  EXPECT_EQ(machine->console_output(), output1);
}

TEST(Machine, RestoreResetsDisk) {
  auto machine = make_machine("fstime");
  ASSERT_TRUE(machine->boot());
  const std::uint64_t pristine = fsutil::tree_digest(machine->disk_image());
  machine->run(kRunBudget);
  machine->restore();
  EXPECT_EQ(fsutil::tree_digest(machine->disk_image()), pristine);
}

TEST(Machine, RestoreLandsOnTheBootCheckpoint) {
  // The post-boot state is a Checkpoint: right after restore() the
  // machine matches all of it, timer phase included, whether it booted
  // or adopted the state; one run later it no longer does.
  constexpr std::size_t kNoMask = static_cast<std::size_t>(-1);
  auto booted = make_machine("syscall");
  ASSERT_TRUE(booted->boot());
  auto adopter = make_machine("pipe");
  adopter->adopt_boot(booted->boot_state());
  for (Machine* machine : {booted.get(), adopter.get()}) {
    const Checkpoint& boot = machine->boot_state()->state;
    CheckpointMemo memo;
    machine->restore();
    EXPECT_TRUE(machine->state_matches(boot, memo, kNoMask));
    machine->run(1);
    EXPECT_FALSE(machine->state_matches(boot, memo, kNoMask));
    EXPECT_EQ(machine->run(kRunBudget).exit, RunExit::Completed);
    machine->restore();
    EXPECT_TRUE(machine->state_matches(boot, memo, kNoMask));
  }
}

TEST(Machine, WatchdogCatchesBudgetExhaustion) {
  auto machine = make_machine("dhry");
  ASSERT_TRUE(machine->boot());
  const RunResult result = machine->run(1000);  // far too little
  EXPECT_EQ(result.exit, RunExit::Hung);
}

TEST(Machine, RootDiskIsWellFormed) {
  const disk::DiskImage image = make_root_disk();
  EXPECT_EQ(fsutil::fsck(image).verdict, fsutil::FsckVerdict::Clean);
  EXPECT_TRUE(fsutil::read_file(image, "/sbin/init").has_value());
  EXPECT_TRUE(fsutil::read_file(image, "/lib/libc.so").has_value());
  EXPECT_TRUE(fsutil::read_file(image, "/etc/passwd").has_value());
  EXPECT_TRUE(fsutil::read_file(image, "/data/seed.dat").has_value());
  EXPECT_NE(fsutil::lookup(image, "/tmp"), 0u);
}

}  // namespace
}  // namespace kfi::machine
