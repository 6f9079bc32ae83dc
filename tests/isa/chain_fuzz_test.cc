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

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "isa/decode.h"
#include "program_fuzz.h"
#include "vm/cpu.h"
#include "vm/hostmap.h"
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
};

Outcome run_engine(FuzzRig& rig, std::uint64_t max_cycles) {
  Outcome out;
  while (rig.cpu.cycles() < max_cycles) {
    CpuEvent event;
    if (!rig.chained) {
      event = rig.cpu.step();
    } else if (rig.cpu.run_block(max_cycles - rig.cpu.cycles(), nullptr,
                                 event) == 0) {
      event = rig.cpu.step();
    }
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
