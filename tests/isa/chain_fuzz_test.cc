// Differential fuzz battery guarding the engine identity contract.
//
// Every seeded program from the shape generator (program_fuzz.h) runs
// twice — through the stepping engine (the semantic oracle) and the
// chained engine — and every run-visible outcome must be bit-identical:
// registers, the full Flags word at every trap delivery and at the end
// of the run, eip, cpl, cycle count, halt/dead state, the trap delivery
// sequence, every RAM page either engine dirtied, and the MMU's
// TLB-mutation epoch (the chained engine's inline translate cache may
// only skip translations that are provably TLB hits, so fill histories
// must match the stepper's).
//
// The two rigs are reused across seeds: a pristine post-setup snapshot
// is restored before each program (O(dirtied pages), and the restore
// bumps page versions, which invalidates stale cached blocks), so the
// 2000-seed battery stays cheap enough for tier-1.  Each seed starts
// from an empty TLB and compares TLB epochs counted from its own
// start, so a failing seed is listed alone, never with every later
// seed.
//
// Failing seeds are appended to chain_fuzz_failures.txt in the working
// directory; CI uploads that file as an artifact on failure so a
// red run is reproducible offline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "isa/decode.h"
#include "isa/encode.h"
#include "program_fuzz.h"
#include "vm/cpu.h"
#include "vm/hostmap.h"
#include "vm/liveness.h"
#include "vm/snapshot.h"

namespace kfi::vm {
namespace {

using isa::Reg;
using isa::Trap;
using isa::fuzz::FuzzProgram;
using isa::fuzz::Shape;

constexpr std::uint32_t kCodeVirt = 0xC0105000;  // page-aligned kernel text
constexpr std::uint32_t kDataVirt = 0xC0200000;
constexpr std::uint32_t kHandlerVirt = 0xC0110000;
// The split pages' frames, swapped: the first split page maps the
// higher frame, whose physical successor is neither.
constexpr std::uint32_t kSplitFrame = 0x00E00000;

static_assert(isa::fuzz::kFuzzMmioWord == kCrashMmio);

// Answers each read with a running count, so an engine that reads the
// MMIO word a different number of times ends with different registers.
class CountingDevice : public Device {
 public:
  std::uint32_t mmio_read(std::uint32_t) override {
    return 0xD0000000u + reads_++;
  }
  void mmio_write(std::uint32_t, std::uint32_t) override {}
  void reset() { reads_ = 0; }

 private:
  std::uint32_t reads_ = 0;
};

// One reusable differential rig.  Construction (16 MiB zero fill, page
// tables, snapshot capture) happens once per battery; reset() restores
// the pristine image and re-seeds architectural state per program.
struct FuzzRig {
  PhysicalMemory memory;
  Bus bus;
  CountingDevice port;
  Cpu cpu;
  bool chained;
  ChunkedSnapshot pristine;
  std::vector<std::uint64_t> memo;
  // Mmu::epoch() at the last reset(): each seed's TLB mutations are
  // counted from there, so one seed's fill history cannot fail the next.
  std::uint64_t epoch_base = 0;

  explicit FuzzRig(bool chained_engine)
      : memory(kRamSize), cpu(memory, bus), chained(chained_engine) {
    HostMapper mapper(memory, kBootPgdPhys, kKernelPtePhys);
    mapper.map_range(kKernelBase, 0, kRamSize, kPteWrite);
    mapper.map(isa::fuzz::kFuzzSplitVirt, kSplitFrame + kPageSize, kPteWrite);
    mapper.map(isa::fuzz::kFuzzSplitVirt + kPageSize, kSplitFrame,
               kPteWrite);
    memory.fill(kSplitFrame + kPageSize, kPageSize, 0xA5);
    memory.fill(kSplitFrame, kPageSize, 0x5A);
    cpu.mmu().set_cr3(kBootPgdPhys);
    memory.write32(kTssPhys, kBootStackTop);
    for (int v = 0; v < 32; ++v) cpu.set_vector(v, kHandlerVirt);
    cpu.set_vector(0x80, kHandlerVirt);
    cpu.set_vector(0x20, kHandlerVirt);
    memory.fill(phys_of_virt(kHandlerVirt), 64, 0xF4);  // hlt
    bus.attach(kCrashMmio, kPageSize, &port);
    pristine = memory.snapshot_pages();
  }

  void reset(const std::vector<std::uint8_t>& program) {
    memory.restore_pages(pristine, memo);
    port.reset();
    memory.write_block(phys_of_virt(kCodeVirt), program.data(),
                       static_cast<std::uint32_t>(program.size()));
    for (int r = 0; r < isa::kRegCount; ++r) {
      cpu.set_reg(static_cast<Reg>(r), 0);
    }
    cpu.set_reg(Reg::Esp, kBootStackTop);
    cpu.set_eip(kCodeVirt);
    cpu.flags() = isa::Flags{};
    cpu.set_cpl(0);
    cpu.set_cycles(0);
    cpu.reset_fault_state();
    cpu.mmu().flush_tlb();  // every seed starts from an empty TLB
    epoch_base = cpu.mmu().epoch();
  }
};

struct TrapSeen {
  Trap trap;
  std::uint64_t cycle;
  std::uint32_t faulting_eip;
  // Full flags word right after delivery: no engine may leave a stale
  // flag visible at any trap stop.
  std::uint32_t flags_word;

  bool operator==(const TrapSeen&) const = default;
};

struct Outcome {
  CpuEvent last;
  std::vector<TrapSeen> traps;
  // Dispatches that trapped after their first op.
  std::uint64_t mid_trace_traps = 0;
};

// Runs the rig's program to a non-Executed event or `max_cycles`.  With
// a liveness recorder attached, `rungs` (ascending cycles) are passed
// as Machine::run passes a ladder's: at the first loop top at or after
// each, with no dispatch running across one.
Outcome run_engine(FuzzRig& rig, std::uint64_t max_cycles,
                   ByteLiveness* live = nullptr,
                   const std::vector<std::uint64_t>& rungs = {}) {
  Outcome out;
  std::size_t next_rung = 0;
  while (rig.cpu.cycles() < max_cycles) {
    std::uint64_t limit = max_cycles - rig.cpu.cycles();
    if (live != nullptr) {
      while (next_rung < rungs.size() &&
             rig.cpu.cycles() >= rungs[next_rung]) {
        live->rung();
        ++next_rung;
      }
      if (next_rung < rungs.size() &&
          rungs[next_rung] - rig.cpu.cycles() < limit) {
        limit = rungs[next_rung] - rig.cpu.cycles();
      }
    }
    CpuEvent event;
    std::size_t ran = 0;
    if (!rig.chained) {
      event = rig.cpu.step();
    } else if ((ran = rig.cpu.run_block(limit, nullptr, event)) == 0) {
      event = rig.cpu.step();
    }
    if (ran > 1 && event.trap_taken) ++out.mid_trace_traps;
    out.last = event;
    if (event.trap_taken) {
      out.traps.push_back({rig.cpu.last_trap().trap,
                           rig.cpu.last_trap().cycle,
                           rig.cpu.last_trap().faulting_eip,
                           rig.cpu.flags().to_word()});
    }
    if (event.kind != CpuEventKind::Executed) break;
  }
  return out;
}

// Returns "" when rigs a and b agree on every run-visible outcome;
// otherwise a one-line description of the first divergence found.
// `base_*` are the page-version vectors captured right after reset, so
// "dirty" means "written during this program".
std::string compare_rigs(FuzzRig& a, FuzzRig& b, const Outcome& oa,
                         const Outcome& ob,
                         const std::vector<std::uint64_t>& base_a,
                         const std::vector<std::uint64_t>& base_b) {
  char buf[128];
  for (int r = 0; r < isa::kRegCount; ++r) {
    const auto va = a.cpu.reg(static_cast<Reg>(r));
    const auto vb = b.cpu.reg(static_cast<Reg>(r));
    if (va != vb) {
      std::snprintf(buf, sizeof buf, "reg %d: %08x vs %08x", r, va, vb);
      return buf;
    }
  }
  if (a.cpu.eip() != b.cpu.eip()) return "eip diverged";
  if (a.cpu.flags().to_word() != b.cpu.flags().to_word()) {
    return "flags diverged";
  }
  if (a.cpu.cpl() != b.cpu.cpl()) return "cpl diverged";
  if (a.cpu.cycles() != b.cpu.cycles()) {
    std::snprintf(buf, sizeof buf, "cycles: %llu vs %llu",
                  static_cast<unsigned long long>(a.cpu.cycles()),
                  static_cast<unsigned long long>(b.cpu.cycles()));
    return buf;
  }
  if (a.cpu.halted() != b.cpu.halted()) return "halted diverged";
  if (a.cpu.dead() != b.cpu.dead()) return "dead diverged";
  if (oa.last.kind != ob.last.kind) return "terminal event kind diverged";
  if (oa.traps != ob.traps) return "trap sequence diverged";
  const std::uint64_t epochs_a = a.cpu.mmu().epoch() - a.epoch_base;
  const std::uint64_t epochs_b = b.cpu.mmu().epoch() - b.epoch_base;
  if (epochs_a != epochs_b) {
    std::snprintf(buf, sizeof buf, "mmu epoch: +%llu vs +%llu (TLB fills)",
                  static_cast<unsigned long long>(epochs_a),
                  static_cast<unsigned long long>(epochs_b));
    return buf;
  }
  const auto& va = a.memory.page_versions();
  const auto& vb = b.memory.page_versions();
  for (std::size_t p = 0; p < va.size(); ++p) {
    const bool dirty = va[p] != base_a[p] || vb[p] != base_b[p];
    if (!dirty) continue;
    const std::uint32_t paddr = static_cast<std::uint32_t>(p) * kPageSize;
    if (std::memcmp(a.memory.raw(paddr), b.memory.raw(paddr), kPageSize) !=
        0) {
      std::snprintf(buf, sizeof buf, "RAM page %zu diverged", p);
      return buf;
    }
  }
  return "";
}

void run_battery(Shape shape, int num_seeds) {
  FuzzRig step_rig(/*chained_engine=*/false);
  FuzzRig chain_rig(/*chained_engine=*/true);

  std::vector<std::uint64_t> failures;
  for (std::uint64_t seed = 1;
       seed <= static_cast<std::uint64_t>(num_seeds); ++seed) {
    const FuzzProgram prog =
        isa::fuzz::generate(shape, seed, kCodeVirt, kDataVirt);
    ASSERT_FALSE(prog.bytes.empty())
        << isa::fuzz::shape_name(shape) << " seed " << seed
        << ": generator produced an unencodable program";
    ASSERT_LT(prog.bytes.size(), 2u * kPageSize);

    step_rig.reset(prog.bytes);
    chain_rig.reset(prog.bytes);
    const std::vector<std::uint64_t> step_base =
        step_rig.memory.page_versions();
    const std::vector<std::uint64_t> chain_base =
        chain_rig.memory.page_versions();
    const Outcome step_out = run_engine(step_rig, prog.max_cycles);
    const Outcome chain_out = run_engine(chain_rig, prog.max_cycles);
    const std::string err = compare_rigs(step_rig, chain_rig, step_out,
                                         chain_out, step_base, chain_base);
    if (!err.empty()) {
      failures.push_back(seed);
      if (failures.size() <= 10) {
        ADD_FAILURE() << isa::fuzz::shape_name(shape) << " seed " << seed
                      << " (step vs chained): " << err;
      }
    }
  }

  if (!failures.empty()) {
    // Reproduction list for the CI failure artifact.
    if (std::FILE* f = std::fopen("chain_fuzz_failures.txt", "a")) {
      for (const std::uint64_t seed : failures) {
        std::fprintf(f, "%s %llu\n", isa::fuzz::shape_name(shape),
                     static_cast<unsigned long long>(seed));
      }
      std::fclose(f);
    }
    ADD_FAILURE() << failures.size() << " of " << num_seeds << " "
                  << isa::fuzz::shape_name(shape)
                  << " seeds diverged (list in chain_fuzz_failures.txt)";
  }

  // The battery must actually exercise the machinery it guards.
  EXPECT_GT(chain_rig.cpu.block_ops(), 0u);
  EXPECT_EQ(step_rig.cpu.block_ops(), 0u);
  if (shape == Shape::TightLoops || shape == Shape::BranchLadder ||
      shape == Shape::SmcChain || shape == Shape::DeadFlags ||
      shape == Shape::FlagEdge || shape == Shape::CondEdge) {
    EXPECT_GT(chain_rig.cpu.chain_follows(), 0u)
        << "shape never followed a chain link";
  }
  if (shape == Shape::StackBinop) {
    EXPECT_GT(chain_rig.cpu.fused_groups(), 0u) << "no group ran fused";
    EXPECT_GT(chain_rig.cpu.fused_declines(), 0u) << "no group declined";
  }
}

// Every (pc, cycle) an engine reports to its exec observer.
struct PcLog final : ExecObserver {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> seen;
  void executes(std::uint32_t pc, std::uint64_t cycle) override {
    seen.emplace_back(pc, cycle);
  }
};

// Returns "" when two recorders give the same answers: the pages they
// hold state for, the footprint, and per byte of those pages whether a
// walk read it and whether it is dead at each rung.
std::string compare_liveness(const ByteLiveness& a, const ByteLiveness& b) {
  char buf[128];
  if (a.rungs() != b.rungs()) return "rungs passed diverged";
  if (a.pages() != b.pages()) return "accessed pages diverged";
  if (a.footprint() != b.footprint()) return "footprint diverged";
  for (const std::uint32_t page : a.pages()) {
    for (std::uint32_t paddr = page * kPageSize;
         paddr != (page + 1) * kPageSize; ++paddr) {
      if (a.walked(paddr) != b.walked(paddr)) {
        std::snprintf(buf, sizeof buf, "walked 0x%x diverged", paddr);
        return buf;
      }
      for (std::size_t k = 0; k < a.rungs(); ++k) {
        if (a.dead(paddr, k) != b.dead(paddr, k)) {
          std::snprintf(buf, sizeof buf, "dead 0x%x at rung %zu diverged",
                        paddr, k);
          return buf;
        }
      }
    }
  }
  return "";
}

// Runs the loaded programs of both rigs with an exec observer and a
// fresh liveness recorder (`*_live`, sized for `rungs`) attached to each,
// so the chained rig dispatches in its recording mode.  Returns "" when
// the stepper and the recording dispatch report the same (pc, cycle)
// sequence and their recorders agree, as well as on every outcome
// compare_rigs checks.
std::string run_recorded(FuzzRig& step_rig, FuzzRig& chain_rig,
                         std::uint64_t max_cycles,
                         const std::vector<std::uint64_t>& rungs,
                         ByteLiveness& step_live, ByteLiveness& chain_live,
                         std::uint64_t* mid_trace_traps = nullptr) {
  const std::vector<std::uint64_t> step_base =
      step_rig.memory.page_versions();
  const std::vector<std::uint64_t> chain_base =
      chain_rig.memory.page_versions();
  PcLog step_log;
  PcLog chain_log;
  step_rig.cpu.set_liveness(&step_live);
  step_rig.cpu.set_exec_observer(&step_log);
  chain_rig.cpu.set_liveness(&chain_live);
  chain_rig.cpu.set_exec_observer(&chain_log);
  const Outcome step_out = run_engine(step_rig, max_cycles, &step_live, rungs);
  const Outcome chain_out =
      run_engine(chain_rig, max_cycles, &chain_live, rungs);
  step_rig.cpu.set_liveness(nullptr);
  step_rig.cpu.set_exec_observer(nullptr);
  chain_rig.cpu.set_liveness(nullptr);
  chain_rig.cpu.set_exec_observer(nullptr);
  if (mid_trace_traps != nullptr) *mid_trace_traps += chain_out.mid_trace_traps;
  std::string err = compare_rigs(step_rig, chain_rig, step_out, chain_out,
                                 step_base, chain_base);
  if (!err.empty()) return err;
  if (step_log.seen.empty()) return "no instruction observed";
  if (step_log.seen != chain_log.seen) {
    const std::size_t n =
        std::min(step_log.seen.size(), chain_log.seen.size());
    std::size_t i = 0;
    while (i < n && step_log.seen[i] == chain_log.seen[i]) ++i;
    return "observed (pc, cycle) diverged at instruction " + std::to_string(i);
  }
  return compare_liveness(step_live, chain_live);
}

// The recording dispatch against the stepper on every shape: traps in
// the middle of a trace (mixed, mem_mix), self-modified code pages
// (smc_chain), fused binop groups, which run op by op while recording
// (stack_binop), and traces across pages (cross_page).
TEST(ChainFuzz, RecordingDispatchMatchesStepper) {
  FuzzRig step_rig(/*chained_engine=*/false);
  FuzzRig chain_rig(/*chained_engine=*/true);
  std::uint64_t mid_trace_traps = 0;
  std::size_t failures = 0;
  for (const Shape shape : isa::fuzz::kAllShapes) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const FuzzProgram prog =
          isa::fuzz::generate(shape, seed, kCodeVirt, kDataVirt);
      step_rig.reset(prog.bytes);
      chain_rig.reset(prog.bytes);
      const std::vector<std::uint64_t> rungs = {
          prog.max_cycles / 64, prog.max_cycles / 16, prog.max_cycles / 4};
      ByteLiveness step_live(kRamSize, rungs.size());
      ByteLiveness chain_live(kRamSize, rungs.size());
      const std::string err =
          run_recorded(step_rig, chain_rig, prog.max_cycles, rungs, step_live,
                       chain_live, &mid_trace_traps);
      if (!err.empty() && ++failures <= 10) {
        ADD_FAILURE() << isa::fuzz::shape_name(shape) << " seed " << seed
                      << " (step vs recording chained): " << err;
      }
    }
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(chain_rig.cpu.block_ops(), 0u);
  EXPECT_GT(chain_rig.cpu.chain_follows(), 0u);
  EXPECT_GT(chain_rig.cpu.block_invalidations(), 0u);
  EXPECT_GT(mid_trace_traps, 0u);
  // Recording never runs a group fused (ChainFuzz.StackBinop shows the
  // same programs do run fused groups when not recording).
  EXPECT_EQ(chain_rig.cpu.fused_groups(), 0u);
}

// A trace whose lookahead decodes a page the run never reaches: its
// first op faults, so the direct jmp the trace widened across never
// runs.  Block construction must report no walk of the jmp target's
// page-table entry; the stepper never reads it.
TEST(ChainFuzz, RecordingReportsNoWalkOfALookaheadPage) {
  constexpr std::uint32_t kFarVirt = 0xC0180000;  // mapped, never run
  std::vector<std::uint8_t> bytes;
  // mov eax, [0x1000]: no mapping there, so it raises #PF.
  ASSERT_TRUE(isa::encode(isa::fuzz::load_abs(Reg::Eax, 0x1000), bytes));
  isa::Instruction jmp = isa::fuzz::jmp();
  jmp.rel = 0;
  const std::size_t jmp_at = bytes.size();
  ASSERT_TRUE(isa::encode(jmp, bytes, /*force_long_branch=*/true));
  jmp.rel = static_cast<std::int32_t>(kFarVirt - (kCodeVirt + bytes.size()));
  bytes.resize(jmp_at);
  ASSERT_TRUE(isa::encode(jmp, bytes, /*force_long_branch=*/true));

  FuzzRig step_rig(/*chained_engine=*/false);
  FuzzRig chain_rig(/*chained_engine=*/true);
  step_rig.reset(bytes);
  chain_rig.reset(bytes);
  const std::uint32_t pgd =
      step_rig.memory.read32(kBootPgdPhys + ((kFarVirt >> 22) << 2));
  const std::uint32_t far_pte =
      (pgd & kPteFrameMask) + (((kFarVirt >> 12) & 0x3FF) << 2);
  ByteLiveness step_live(kRamSize, 1);
  ByteLiveness chain_live(kRamSize, 1);
  EXPECT_EQ(run_recorded(step_rig, chain_rig, 200, {100}, step_live,
                         chain_live),
            "");
  EXPECT_FALSE(step_live.walked(far_pte));
  EXPECT_FALSE(chain_live.walked(far_pte));
  EXPECT_EQ(step_rig.cpu.last_trap().trap, Trap::PageFault);
  // The faulting op ran from a trace that widened across the jmp.
  EXPECT_EQ(chain_rig.cpu.blocks_built(), 2u);  // the trace, the handler
  EXPECT_GT(chain_rig.cpu.trace_len(), 2u);
}

// 11 shapes x 200 seeds = 2200 differential programs in tier-1.
TEST(ChainFuzz, Mixed) { run_battery(Shape::Mixed, 200); }
TEST(ChainFuzz, TightLoops) { run_battery(Shape::TightLoops, 200); }
TEST(ChainFuzz, BranchLadder) { run_battery(Shape::BranchLadder, 200); }
TEST(ChainFuzz, SmcChain) { run_battery(Shape::SmcChain, 200); }
TEST(ChainFuzz, CrossPage) { run_battery(Shape::CrossPage, 200); }
TEST(ChainFuzz, CallRet) { run_battery(Shape::CallRet, 200); }
TEST(ChainFuzz, DeadFlags) { run_battery(Shape::DeadFlags, 200); }
TEST(ChainFuzz, FlagEdge) { run_battery(Shape::FlagEdge, 200); }
TEST(ChainFuzz, MemMix) { run_battery(Shape::MemMix, 200); }
TEST(ChainFuzz, CondEdge) { run_battery(Shape::CondEdge, 200); }
TEST(ChainFuzz, StackBinop) { run_battery(Shape::StackBinop, 200); }

// Generator sanity: every emitted byte stream decodes cleanly end to
// end (padding included), and regenerating a seed is deterministic.
TEST(ChainFuzz, GeneratorEmitsDecodableDeterministicStreams) {
  for (const Shape shape : isa::fuzz::kAllShapes) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(isa::fuzz::shape_name(shape)) + " seed " +
                   std::to_string(seed));
      const FuzzProgram prog =
          isa::fuzz::generate(shape, seed, kCodeVirt, kDataVirt);
      ASSERT_FALSE(prog.bytes.empty());
      std::size_t off = 0;
      while (off < prog.bytes.size()) {
        isa::Instruction instr;
        const isa::DecodeStatus status = isa::decode(
            prog.bytes.data() + off, prog.bytes.size() - off, instr);
        ASSERT_EQ(status, isa::DecodeStatus::Ok) << "at offset " << off;
        ASSERT_NE(instr.op, isa::Op::Invalid) << "at offset " << off;
        off += instr.length;
      }
      EXPECT_EQ(off, prog.bytes.size());
      EXPECT_EQ(isa::fuzz::generate(shape, seed, kCodeVirt, kDataVirt).bytes,
                prog.bytes);
    }
  }
}

}  // namespace
}  // namespace kfi::vm
