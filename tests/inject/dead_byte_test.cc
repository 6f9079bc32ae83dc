// Soundness of the golden run's per-rung dead bits (DESIGN.md §7,
// layer 3): campaign E masks its flipped byte out of a reconvergence
// compare at every rung where the golden capture proved the byte dead
// — its next golden access a write, or none.  These tests check the
// bits against the machine itself, not against the capture's hooks:
// flipping a dead byte at its rung must replay the golden run to the
// end, a byte a page-table walk reads is never dead, and a byte of an
// instruction the golden run executes again before the byte's page is
// written is never dead (decode-cache hits execute bytes without
// re-reading memory).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/expectations.h"
#include "fsutil/kfs.h"
#include "inject/campaign.h"
#include "inject/golden.h"
#include "isa/decode.h"
#include "profile/profile.h"
#include "vm/liveness.h"

namespace kfi::inject {
namespace {

constexpr std::uint64_t kBudget = 100'000'000;

// The workloads the smoke D/E campaigns trigger in.
std::set<std::string> smoke_de_workloads() {
  std::set<std::string> workloads;
  for (const Campaign campaign :
       {Campaign::RegisterFile, Campaign::KernelData}) {
    for (const InjectionSpec& spec :
         campaign_targets(profile::default_profile(),
                          check::smoke_config(campaign), nullptr)) {
      workloads.insert(spec.workload);
    }
  }
  return workloads;
}

GoldenCache& cache() {
  static GoldenCache* shared = new GoldenCache();
  return *shared;
}

// A private machine started from the workload's shared boot image.
std::unique_ptr<machine::Machine> worker(const std::string& workload,
                                         machine::ExecEngine engine) {
  machine::MachineOptions options;
  options.exec_engine = engine;
  auto machine = std::make_unique<machine::Machine>(
      cache().image(), workloads::built_workload(workload),
      cache().root_disk(), options);
  machine->adopt_boot(cache().workload(workload).boot);
  return machine;
}

// The rung's byte at `phys`.
std::uint8_t rung_byte(const machine::Checkpoint& rung, std::uint32_t phys) {
  const vm::ChunkedSnapshot& mem = rung.mem;
  return mem.chunk(phys / mem.chunk_size())[phys % mem.chunk_size()];
}

// Footprint bytes inside the rung's page tables: its page directory and
// every page table a present directory entry points at.
std::vector<std::uint32_t> table_bytes(const WorkloadGolden& golden,
                                       const machine::Checkpoint& rung) {
  const std::uint32_t pgd = rung.cr3 & ~vm::kPageMask;
  std::set<std::uint32_t> pages = {pgd};
  for (std::uint32_t slot = 0; slot < vm::kPageSize; slot += 4) {
    std::uint32_t entry = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
      entry |= static_cast<std::uint32_t>(rung_byte(rung, pgd + slot + i))
               << (8 * i);
    }
    if ((entry & vm::kPtePresent) != 0 &&
        (entry & vm::kPteFrameMask) < vm::kRamSize) {
      pages.insert(entry & vm::kPteFrameMask);
    }
  }
  std::vector<std::uint32_t> out;
  for (const std::uint32_t phys : golden.write_footprint) {
    if (pages.count(phys & ~vm::kPageMask) != 0) out.push_back(phys);
  }
  return out;
}

TEST(DeadByte, FlippingADeadByteAtItsRungReplaysTheGoldenRun) {
  std::size_t flips = 0;
  std::size_t table_flips = 0;
  for (const std::string& workload : smoke_de_workloads()) {
    SCOPED_TRACE(workload);
    const WorkloadGolden& golden = cache().workload(workload);
    ASSERT_EQ(golden.dead_bits.size(), golden.dead_words());
    auto machine = worker(workload, machine::default_exec_engine());
    const std::uint64_t end = machine->snapshot_cycles() + golden.golden.cycles;
    std::vector<machine::CheckpointMemo> memos(golden.ladder.size());
    for (std::size_t k = 0; k < golden.ladder.size(); ++k) {
      const machine::Checkpoint& rung = golden.ladder[k];
      // Three dead bytes spread over the footprint, and one in the
      // page tables, which a rung-resumed run walks with a cold TLB.
      std::vector<std::uint32_t> dead;
      for (const std::uint32_t phys : golden.write_footprint) {
        if (golden.dead_at(phys, k)) dead.push_back(phys);
      }
      std::vector<std::uint32_t> samples;
      for (std::size_t j = 1; j <= 3 && !dead.empty(); ++j) {
        samples.push_back(dead[j * dead.size() / 4]);
      }
      for (const std::uint32_t phys : table_bytes(golden, rung)) {
        if (golden.dead_at(phys, k)) {
          samples.push_back(phys);
          ++table_flips;
          break;
        }
      }
      for (std::size_t j = 0; j < samples.size(); ++j) {
        const std::uint32_t phys = samples[j];
        SCOPED_TRACE(testing::Message() << "rung " << k << " byte 0x"
                                        << std::hex << phys);
        machine->restore_checkpoint(rung, memos[k]);
        const std::uint8_t bit = static_cast<std::uint8_t>(1u << ((k + j) % 8));
        machine->memory().write8(phys, machine->memory().read8(phys) ^ bit);
        machine->cpu().invalidate_blocks(phys);
        const machine::RunResult run = machine->run(kBudget);
        ASSERT_EQ(run.exit, machine::RunExit::Completed);
        EXPECT_EQ(run.exit_code, golden.golden.exit_code);
        EXPECT_EQ(machine->console_output(), golden.golden.console);
        EXPECT_EQ(fsutil::tree_digest(machine->disk_image()),
                  golden.golden.fs_digest);
        EXPECT_EQ(machine->cpu().cycles(), end);
        ++flips;
      }
    }
  }
  EXPECT_GT(flips, 0u);
  EXPECT_GT(table_flips, 0u);
}

// Steps the golden run on `machine` (Step engine) one instruction at a
// time from the boot snapshot, calling `top(cycle)` at every loop top
// and `executed(eip, bytes)` for each instruction fetched there, with
// its bytes' physical addresses decoded from RAM and the page tables
// before the step — independently of the CPU's caches.  Returns how
// the run ended.
template <typename Top, typename Executed>
machine::RunExit step_golden(machine::Machine& machine, Top top,
                             Executed executed) {
  vm::Cpu& cpu = machine.cpu();
  machine.restore();
  machine::RunResult run;
  do {
    const std::uint64_t cycle = cpu.cycles();
    top(cycle);
    const std::uint32_t eip = cpu.eip();
    std::vector<std::uint32_t> bytes;
    if (!cpu.halted()) {
      std::uint8_t buf[isa::kMaxInstructionLength] = {};
      std::size_t have = 0;
      for (; have < sizeof buf; ++have) {
        std::uint32_t phys = 0;
        if (cpu.mmu().peek(eip + static_cast<std::uint32_t>(have),
                           vm::Access::Execute, cpu.cpl(),
                           phys) != vm::TranslateStatus::Ok) {
          break;
        }
        buf[have] = machine.memory().read8(phys);
        bytes.push_back(phys);
      }
      isa::Instruction instr;
      if (isa::decode(buf, have, instr) == isa::DecodeStatus::Ok) {
        bytes.resize(instr.length);
      } else {
        bytes.clear();
      }
    }
    const std::uint32_t cr3 = cpu.mmu().cr3();
    run = machine.run(1, /*resumable=*/true);
    // A tick delivered at this loop top ran the handler's first
    // instruction instead; the interrupted one runs after iret.
    const bool interrupted = cpu.last_trap().trap == isa::Trap::Timer &&
                             cpu.last_trap().cycle == cycle;
    if (!bytes.empty() && !interrupted) executed(eip, cr3, bytes);
  } while (run.exit == machine::RunExit::Hung &&
           cpu.cycles() < machine.snapshot_cycles() + kBudget);
  return run.exit;
}

TEST(DeadByte, WalkedBytesAreNeverDead) {
  // Every instruction fetch translates through the directory and table
  // entries of its page, so golden walks each of them at least once
  // (every run starts with a flushed TLB).  Those entries are found
  // here from the page tables alone, not from the MMU's walk hook.
  std::size_t walked = 0;
  for (const std::string& workload : smoke_de_workloads()) {
    SCOPED_TRACE(workload);
    const WorkloadGolden& golden = cache().workload(workload);
    auto machine = worker(workload, machine::ExecEngine::Step);
    const vm::PhysicalMemory& ram = machine->memory();
    std::set<std::uint32_t> entries;
    const auto executed = [&](std::uint32_t eip, std::uint32_t cr3,
                              const std::vector<std::uint32_t>&) {
      const std::uint32_t pgd_slot = cr3 + ((eip >> 22) << 2);
      const std::uint32_t pgd = ram.read32(pgd_slot);
      const std::uint32_t pte_slot =
          (pgd & vm::kPteFrameMask) + (((eip >> 12) & 0x3FF) << 2);
      for (std::uint32_t i = 0; i < 4; ++i) {
        entries.insert(pgd_slot + i);
        entries.insert(pte_slot + i);
      }
    };
    ASSERT_EQ(step_golden(*machine, [](std::uint64_t) {}, executed),
              machine::RunExit::Completed);
    for (const std::uint32_t phys : golden.write_footprint) {
      if (entries.count(phys) == 0) continue;
      ++walked;
      for (std::size_t k = 0; k < golden.ladder.size(); ++k) {
        EXPECT_FALSE(golden.dead_at(phys, k))
            << "walked byte 0x" << std::hex << phys << " dead at rung "
            << std::dec << k;
      }
    }
  }
  EXPECT_GT(walked, 0u);
}

TEST(DeadByte, RefetchedInstructionBytesAreLive) {
  // Steps each golden run with a recorder attached, as the capture pass
  // runs.  When an instruction is fetched at or after a rung and its
  // page has not been written since the rung, nothing wrote its bytes
  // in between: the recorder must keep each of them live there.
  // Campaign E's footprint holds no executed bytes, so this checks the
  // recorder on every byte, then that it reproduces the golden bits.
  std::size_t checked = 0;
  for (const std::string& workload : smoke_de_workloads()) {
    SCOPED_TRACE(workload);
    const WorkloadGolden& golden = cache().workload(workload);
    auto machine = worker(workload, machine::ExecEngine::Step);
    vm::ByteLiveness liveness(machine->memory().size(), golden.ladder.size());
    machine->set_liveness(&liveness);
    // Page versions at each rung passed so far, and per executed byte
    // the first rung its next fetch has not been checked against.
    std::vector<std::vector<std::uint64_t>> versions;
    std::unordered_map<std::uint32_t, std::size_t> unchecked;
    std::vector<std::pair<std::uint32_t, std::size_t>> live;
    const auto top = [&](std::uint64_t cycle) {
      while (versions.size() < golden.ladder.size() &&
             golden.ladder[versions.size()].cycle <= cycle) {
        versions.push_back(machine->memory().page_versions());
        liveness.rung();
      }
    };
    const auto executed = [&](std::uint32_t, std::uint32_t,
                              const std::vector<std::uint32_t>& bytes) {
      for (const std::uint32_t phys : bytes) {
        std::size_t& from = unchecked[phys];
        const std::uint64_t now = machine->memory().page_version(phys);
        for (std::size_t k = from; k < versions.size(); ++k) {
          if (versions[k][phys >> 12] == now) live.emplace_back(phys, k);
        }
        from = versions.size();
      }
    };
    ASSERT_EQ(step_golden(*machine, top, executed),
              machine::RunExit::Completed);
    machine->set_liveness(nullptr);
    ASSERT_EQ(liveness.rungs(), golden.ladder.size());
    for (const auto& [phys, k] : live) {
      ++checked;
      EXPECT_FALSE(liveness.dead(phys, k))
          << "byte 0x" << std::hex << phys << " dead at rung " << std::dec
          << k;
    }
    // The same recorder under one-instruction segments and rungs marked
    // by hand reproduces the capture pass's footprint and bits.
    ASSERT_EQ(liveness.footprint(), golden.write_footprint);
    for (const std::uint32_t phys : golden.write_footprint) {
      for (std::size_t k = 0; k < golden.ladder.size(); ++k) {
        ASSERT_EQ(liveness.dead(phys, k), golden.dead_at(phys, k))
            << "byte 0x" << std::hex << phys << " rung " << std::dec << k;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace kfi::inject
