// Unit tests for block chaining: link following, link severing through
// both invalidation paths (the injector's explicit invalidate_blocks()
// hint and the bare page-version bump), a mid-block injection flip
// re-derived against the stepper, guest self-modifying code that
// rewrites an already-chained successor, cross-page fall-through chains
// and their TLB-fill determinism, exact cycle-limit stops mid-chain,
// snapshot-restore severing (the checkpoint-rung case), and where the
// in-trace guards sit: a store into a later op of the same trace (on
// the store's page and on the next page), a crash-port store and a TLB
// flush mid-trace, each against the stepper, and the fused-group
// edges: a budget that ends inside a group and a breakpoint on a
// group's interior op.
//
// The differential shapes live in the isa fuzz battery; these tests pin
// the *mechanism* — counters, cache slots, and the exact severing
// points — so a regression reports as "chain not severed" rather than
// "digest diverged somewhere".
#include "vm/cpu.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "../isa/program_fuzz.h"
#include "vm/hostmap.h"
#include "vm/snapshot.h"

namespace kfi::vm {
namespace {

using isa::Cond;
using isa::Instruction;
using isa::Op;
using isa::Reg;
using isa::fuzz::Asm;
using isa::fuzz::alu_rr;
using isa::fuzz::jcc;
using isa::fuzz::jmp;
using isa::fuzz::mem_op;
using isa::fuzz::mov_ri;
using isa::fuzz::movzx_r8;
using isa::fuzz::nullary;
using isa::fuzz::pop_r;
using isa::fuzz::push_r;
using isa::fuzz::setcc;
using isa::fuzz::unary;

constexpr std::uint32_t kCodeVirt = 0xC0105000;  // page-aligned
constexpr std::uint32_t kDataVirt = 0xC0200000;
constexpr std::uint32_t kHandlerVirt = 0xC0110000;

struct Rig {
  PhysicalMemory memory;
  Bus bus;
  Cpu cpu;

  Rig() : memory(kRamSize), cpu(memory, bus) {
    HostMapper mapper(memory, kBootPgdPhys, kKernelPtePhys);
    mapper.map_range(kKernelBase, 0, kRamSize, kPteWrite);
    cpu.mmu().set_cr3(kBootPgdPhys);
    memory.write32(kTssPhys, kBootStackTop);
    for (int v = 0; v < 32; ++v) cpu.set_vector(v, kHandlerVirt);
    cpu.set_vector(0x80, kHandlerVirt);
    cpu.set_vector(0x20, kHandlerVirt);
    memory.fill(phys_of_virt(kHandlerVirt), 64, 0xF4);
    cpu.set_reg(Reg::Esp, kBootStackTop);
    cpu.set_eip(kCodeVirt);
  }

  void load(const std::vector<std::uint8_t>& bytes) {
    memory.write_block(phys_of_virt(kCodeVirt), bytes.data(),
                       static_cast<std::uint32_t>(bytes.size()));
  }

  // Drives run_block with step() fallback until a non-Executed event or
  // the cycle budget, exactly as Machine::run dispatches.
  CpuEvent run(std::uint64_t max_cycles) {
    CpuEvent event{};
    while (cpu.cycles() < max_cycles) {
      if (cpu.run_block(max_cycles - cpu.cycles(), nullptr, event) == 0) {
        event = cpu.step();
      }
      if (event.kind != CpuEventKind::Executed) break;
    }
    return event;
  }

  // Single-steps until a non-Executed event or the cycle budget: the
  // stepper reference every chained run is compared against.
  CpuEvent step_to_stop(std::uint64_t max_cycles) {
    CpuEvent event{};
    while (cpu.cycles() < max_cycles &&
           (event = cpu.step()).kind == CpuEventKind::Executed) {
    }
    return event;
  }
};

// A countdown loop: mov ecx, n; top: add eax, ecx; dec ecx; jne top; hlt.
std::vector<std::uint8_t> loop_program(std::int32_t n) {
  Asm a;
  a.add(mov_ri(Reg::Ecx, n));
  const int top = a.next_index();
  a.add(alu_rr(Op::Add, Reg::Eax, Reg::Ecx));
  a.add(unary(Op::Dec, Reg::Ecx));
  a.branch(jcc(Cond::Ne), top);
  a.add(nullary(Op::Hlt));
  return a.assemble(kCodeVirt);
}

TEST(ChainEngine, LoopFollowsBackEdgeLinks) {
  Rig rig;
  rig.load(loop_program(50));
  const CpuEvent event = rig.run(1000);
  EXPECT_EQ(event.kind, CpuEventKind::Halted);
  EXPECT_EQ(rig.cpu.reg(Reg::Eax), 50u * 51u / 2u);
  // 50 iterations of one re-entered block: after the first pass the
  // back edge is a patched link followed without re-dispatch.
  EXPECT_GT(rig.cpu.chain_follows(), 40u);
  EXPECT_EQ(rig.cpu.block_fallbacks(), 0u);
}

// Two chained blocks; the successor's bytes change between runs.
// The head must end in a jcc — a direct jmp would be trace-widened
// into one block and never produce a chain edge.  Returns the program
// and the code offset of the successor's rewritten immediate.
std::vector<std::uint8_t> chained_pair_program(std::size_t& imm_off) {
  Asm a;
  a.add(mov_ri(Reg::Eax, 7));
  a.add(alu_rr(Op::Cmp, Reg::Eax, Reg::Eax));  // zf = 1
  const int hop = a.branch(jcc(Cond::E), 0);   // always taken
  a.add(nullary(Op::Hlt));                     // dead fall-through path
  a.set_target(hop, a.next_index());
  const int marker = a.add(mov_ri(Reg::Ebx, 1));
  a.add(nullary(Op::Hlt));
  std::vector<std::uint8_t> bytes = a.assemble(kCodeVirt);
  imm_off = a.offset_of(marker) + 1;  // one past the B8+r opcode
  EXPECT_EQ(bytes[a.offset_of(marker)],
            0xB8u + static_cast<unsigned>(Reg::Ebx));
  return bytes;
}

TEST(ChainEngine, InvalidateBlocksSeversChain) {
  Rig rig;
  std::size_t imm_off = 0;
  rig.load(chained_pair_program(imm_off));
  ASSERT_EQ(rig.run(100).kind, CpuEventKind::Halted);
  EXPECT_EQ(rig.cpu.reg(Reg::Ebx), 1u);
  EXPECT_GE(rig.cpu.chain_follows(), 1u);

  // Host-side flip in the chained successor, with the injector's
  // explicit invalidation hint (the Injector::run_one path).
  const std::uint32_t flip_phys =
      phys_of_virt(kCodeVirt) + static_cast<std::uint32_t>(imm_off);
  rig.memory.write8(flip_phys, 5);
  const std::uint64_t invalidations = rig.cpu.block_invalidations();
  rig.cpu.invalidate_blocks(flip_phys);
  EXPECT_GT(rig.cpu.block_invalidations(), invalidations);

  rig.cpu.reset_fault_state();
  rig.cpu.set_eip(kCodeVirt);
  ASSERT_EQ(rig.run(200).kind, CpuEventKind::Halted);
  EXPECT_EQ(rig.cpu.reg(Reg::Ebx), 5u) << "stale chained block executed";
}

TEST(ChainEngine, VersionBumpAloneSeversChain) {
  // No invalidate_blocks() call: the bare write8 version bump must be
  // enough, because every link follow re-validates the successor's
  // code-page version (fail-closed into a fresh lookup).
  Rig rig;
  std::size_t imm_off = 0;
  rig.load(chained_pair_program(imm_off));
  ASSERT_EQ(rig.run(100).kind, CpuEventKind::Halted);
  EXPECT_EQ(rig.cpu.reg(Reg::Ebx), 1u);

  rig.memory.write8(phys_of_virt(kCodeVirt) +
                        static_cast<std::uint32_t>(imm_off),
                    9);
  rig.cpu.reset_fault_state();
  rig.cpu.set_eip(kCodeVirt);
  ASSERT_EQ(rig.run(200).kind, CpuEventKind::Halted);
  EXPECT_EQ(rig.cpu.reg(Reg::Ebx), 9u) << "stale chained block executed";
}

TEST(ChainEngine, MidBlockFlipMatchesStepperFlagsAndLatency) {
  // The injector contract at the cpu level: run once through chained
  // traces, host-flip an immediate in the middle of a cached block,
  // invalidate, and re-run.  The result must match a stepper doing the
  // identical flip — same registers, same full flags word, same cycle
  // count (fault latency is measured in cycles).
  Asm a;
  a.add(mov_ri(Reg::Eax, 7));
  a.add(alu_rr(Op::Cmp, Reg::Eax, Reg::Eax));  // zf = 1
  const int hop = a.branch(jcc(Cond::E), 0);   // always taken
  a.add(nullary(Op::Hlt));                     // dead fall-through
  a.set_target(hop, a.next_index());
  const int marker = a.add(mov_ri(Reg::Ebx, 1));
  a.add(alu_rr(Op::Add, Reg::Ecx, Reg::Ebx));
  a.add(nullary(Op::Hlt));
  const std::vector<std::uint8_t> program = a.assemble(kCodeVirt);
  const std::uint32_t flip_phys =
      phys_of_virt(kCodeVirt) +
      static_cast<std::uint32_t>(a.offset_of(marker) + 1);

  Rig chained, stepper;
  chained.load(program);
  stepper.load(program);
  ASSERT_EQ(chained.run(100).kind, CpuEventKind::Halted);
  ASSERT_EQ(stepper.step_to_stop(100).kind, CpuEventKind::Halted);
  for (Rig* rig : {&chained, &stepper}) {
    rig->memory.write8(flip_phys, 5);
    rig->cpu.invalidate_blocks(flip_phys);
    rig->cpu.reset_fault_state();
    rig->cpu.set_eip(kCodeVirt);
  }
  ASSERT_EQ(chained.run(200).kind, CpuEventKind::Halted);
  ASSERT_EQ(stepper.step_to_stop(200).kind, CpuEventKind::Halted);

  EXPECT_EQ(chained.cpu.reg(Reg::Ebx), 5u) << "stale chained block executed";
  for (int r = 0; r < isa::kRegCount; ++r) {
    EXPECT_EQ(chained.cpu.reg(static_cast<Reg>(r)),
              stepper.cpu.reg(static_cast<Reg>(r)));
  }
  EXPECT_EQ(chained.cpu.flags().to_word(), stepper.cpu.flags().to_word());
  EXPECT_EQ(chained.cpu.cycles(), stepper.cpu.cycles());
  EXPECT_GE(chained.cpu.block_invalidations(), 1u);
}

TEST(ChainEngine, GuestSmcRewritesChainedTarget) {
  // The guest itself rewrites the chained successor's immediate on each
  // trip around a loop: head (store) -> jmp -> marker -> jne head.
  // Differential against the stepper — the canonical SMC contract.
  Asm a;
  a.add(mov_ri(Reg::Edi, 3));  // three iterations
  const int outer = a.next_index();
  a.add(mov_ri(Reg::Eax, 0x40));
  a.add(alu_rr(Op::Add, Reg::Eax, Reg::Edi));
  const int store = a.addr_imm(mov_ri(Reg::Ecx, 0), 0, 0);
  a.add(mem_op(Op::Mov, Reg::Eax, Reg::Ecx, 0, false));
  const int hop = a.branch(jmp(), 0);
  a.set_target(hop, a.next_index());
  const int marker = a.add(mov_ri(Reg::Ebx, 0));
  a.set_imm_target(store, marker, 1);
  a.add(alu_rr(Op::Add, Reg::Esi, Reg::Ebx));
  a.add(unary(Op::Dec, Reg::Edi));
  a.branch(jcc(Cond::Ne), outer);
  a.add(nullary(Op::Hlt));
  const std::vector<std::uint8_t> program = a.assemble(kCodeVirt);
  ASSERT_FALSE(program.empty());

  Rig stepper, chained;
  stepper.load(program);
  chained.load(program);
  ASSERT_EQ(stepper.step_to_stop(500).kind, CpuEventKind::Halted);
  ASSERT_EQ(chained.run(500).kind, CpuEventKind::Halted);

  EXPECT_EQ(chained.cpu.reg(Reg::Esi), stepper.cpu.reg(Reg::Esi));
  EXPECT_EQ(chained.cpu.reg(Reg::Ebx), stepper.cpu.reg(Reg::Ebx));
  EXPECT_EQ(chained.cpu.cycles(), stepper.cpu.cycles());
  // esi = sum of (0x40 + edi) for edi = 3,2,1.
  EXPECT_EQ(chained.cpu.reg(Reg::Esi), 3u * 0x40u + 6u);
  EXPECT_GE(chained.cpu.block_invalidations() + chained.cpu.chain_breaks(),
            1u);
}

TEST(ChainEngine, CrossPageFallthroughChainsWithIdenticalTlbFills) {
  // A nop sled runs off the end of the code page; cap-ended blocks
  // chain via fall-through, so the chain crosses into the next page.
  // Both engines must end bit-identical AND with the same MMU epoch:
  // the chained engine's inline translate cache may only skip
  // translations that are provably TLB hits, so the fill history —
  // which the epoch counts — cannot diverge from the stepper's.
  Asm a;
  a.add(mov_ri(Reg::Eax, 0x1000));
  a.pad_to_page();
  a.add(mov_ri(Reg::Ebx, 0x2000));  // first instruction on page two
  a.add(alu_rr(Op::Add, Reg::Eax, Reg::Ebx));
  a.add(nullary(Op::Hlt));
  const std::vector<std::uint8_t> program = a.assemble(kCodeVirt);
  ASSERT_GT(program.size(), static_cast<std::size_t>(kPageSize));

  Rig stepper, chained;
  stepper.load(program);
  chained.load(program);
  ASSERT_EQ(stepper.step_to_stop(3 * kPageSize).kind, CpuEventKind::Halted);
  ASSERT_EQ(chained.run(3 * kPageSize).kind, CpuEventKind::Halted);

  EXPECT_EQ(chained.cpu.reg(Reg::Eax), 0x3000u);
  EXPECT_EQ(chained.cpu.eip(), stepper.cpu.eip());
  EXPECT_EQ(chained.cpu.cycles(), stepper.cpu.cycles());
  EXPECT_GE(chained.cpu.chain_follows(), 1u);
  EXPECT_EQ(chained.cpu.mmu().epoch(), stepper.cpu.mmu().epoch())
      << "TLB fill history diverged between engines";
}

TEST(ChainEngine, CycleLimitStopsExactlyMidChain) {
  // The budget expires in the middle of a followed chain: run_block
  // must retire exactly max_instructions so timer ticks, deadlines, and
  // checkpoint rungs land on the same cycle as the stepper's loop top.
  Rig rig;
  rig.load(loop_program(50));  // 1 setup op + 3-op loop body
  CpuEvent event{};
  const std::size_t n = rig.cpu.run_block(14, nullptr, event);
  EXPECT_EQ(n, 14u);
  EXPECT_EQ(rig.cpu.cycles(), 14u);
  // 14 = setup + 4 full iterations + dangling add: eip sits at dec.
  EXPECT_GT(rig.cpu.chain_follows(), 0u);
  Rig stepper;
  stepper.load(loop_program(50));
  for (int i = 0; i < 14; ++i) stepper.cpu.step();
  EXPECT_EQ(rig.cpu.eip(), stepper.cpu.eip());
  EXPECT_EQ(rig.cpu.reg(Reg::Eax), stepper.cpu.reg(Reg::Eax));
  EXPECT_EQ(rig.cpu.reg(Reg::Ecx), stepper.cpu.reg(Reg::Ecx));
}

TEST(ChainEngine, SnapshotRestoreSeversChains) {
  // The checkpoint-rung case: restore_pages bumps the versions of every
  // page it copies back, so blocks (and the links into them) cached
  // before the restore never execute stale bytes afterwards.
  Rig rig;
  rig.load(loop_program(20));
  ChunkedSnapshot snap = rig.memory.snapshot_pages();
  std::vector<std::uint64_t> memo;

  ASSERT_EQ(rig.run(200).kind, CpuEventKind::Halted);
  const std::uint32_t eax_first = rig.cpu.reg(Reg::Eax);
  EXPECT_GT(rig.cpu.chain_follows(), 10u);

  // Rewind RAM to the rung and patch the loop bound before re-running:
  // the rebuilt chain must see the patched byte, not the cached 20.
  rig.memory.restore_pages(snap, memo);
  rig.memory.write8(phys_of_virt(kCodeVirt) + 1, 10);  // mov ecx, 10
  rig.cpu.reset_fault_state();
  rig.cpu.set_reg(Reg::Eax, 0);
  rig.cpu.set_eip(kCodeVirt);
  ASSERT_EQ(rig.run(400).kind, CpuEventKind::Halted);
  EXPECT_EQ(rig.cpu.reg(Reg::Eax), 10u * 11u / 2u);
  EXPECT_NE(rig.cpu.reg(Reg::Eax), eax_first);

  // A stepper over the same patched program agrees on the flags word.
  Rig stepper;
  stepper.load(loop_program(20));
  stepper.memory.write8(phys_of_virt(kCodeVirt) + 1, 10);
  ASSERT_EQ(stepper.step_to_stop(400).kind, CpuEventKind::Halted);
  EXPECT_EQ(rig.cpu.flags().to_word(), stepper.cpu.flags().to_word());
}

// ---- guard placement: the per-op guards run only at page changes,
// after TLB mutations and after ops that may store ----

// Equal registers, flags word, eip, cycles and MMU epoch.
void expect_same_state(Rig& a, Rig& b) {
  for (int r = 0; r < isa::kRegCount; ++r) {
    EXPECT_EQ(a.cpu.reg(static_cast<Reg>(r)), b.cpu.reg(static_cast<Reg>(r)))
        << "reg " << r;
  }
  EXPECT_EQ(a.cpu.flags().to_word(), b.cpu.flags().to_word());
  EXPECT_EQ(a.cpu.eip(), b.cpu.eip());
  EXPECT_EQ(a.cpu.cycles(), b.cpu.cycles());
  EXPECT_EQ(a.cpu.mmu().epoch(), b.cpu.mmu().epoch());
}

enum class StoreForm { Mov32, Byte, Push, Call };

TEST(ChainEngine, StoreIntoLaterOpOfSameTraceInvalidatesAtTheNextOp) {
  // One trace on one page: set-up, a store into the imm32 of a later
  // marker op, two non-store ops on the same page, the marker, hlt.
  // Only the op right after a may-store op re-checks the code-page
  // version, so that op must be where the trace is dropped — exactly
  // where the stepper re-decodes — and the marker must run its new
  // bytes.  Each kind of may-store form gets its own run.
  for (const StoreForm form :
       {StoreForm::Mov32, StoreForm::Byte, StoreForm::Push, StoreForm::Call}) {
    SCOPED_TRACE(static_cast<int>(form));
    Asm a;
    const bool via_stack = form == StoreForm::Push || form == StoreForm::Call;
    // edi = &imm32, or esp = &imm32 + 4 so the push lands on it.
    const int ptr =
        a.addr_imm(mov_ri(via_stack ? Reg::Esp : Reg::Edi, 0), 0, 0);
    a.add(mov_ri(Reg::Eax, 0x55667788));
    int store = -1;
    switch (form) {
      case StoreForm::Mov32:
        store = a.add(mem_op(Op::Mov, Reg::Eax, Reg::Edi, 0, false));
        break;
      case StoreForm::Byte: {
        Instruction in = mem_op(Op::Mov, Reg::Eax, Reg::Edi, 0, false);
        in.dst = isa::Operand::make_mem(in.dst.mem, /*byte=*/true);
        in.src = isa::Operand::make_reg8(Reg::Eax);
        store = a.add(in);
        break;
      }
      case StoreForm::Push: {
        Instruction in;
        in.op = Op::Push;
        in.src = isa::Operand::make_reg(Reg::Eax);
        store = a.add(in);
        break;
      }
      case StoreForm::Call:
        // Pushes the address of the next op; widening continues there.
        store = a.branch(isa::fuzz::call(), 0);
        a.set_target(store, a.next_index());
        break;
    }
    a.add(mov_ri(Reg::Edx, 1));
    a.add(alu_rr(Op::Add, Reg::Edx, Reg::Edx));
    const int marker = a.add(mov_ri(Reg::Ebx, 0x11111111));
    a.set_imm_target(ptr, marker, via_stack ? 5 : 1);
    a.add(nullary(Op::Hlt));
    const std::vector<std::uint8_t> program = a.assemble(kCodeVirt);
    ASSERT_FALSE(program.empty());

    Rig chained, stepper;
    chained.load(program);
    stepper.load(program);
    CpuEvent event{};
    EXPECT_EQ(chained.cpu.run_block(100, nullptr, event), 3u)
        << "the trace ran past the op after the store";
    EXPECT_EQ(chained.cpu.block_invalidations(), 1u);
    for (int i = 0; i < 3; ++i) stepper.cpu.step();
    EXPECT_EQ(chained.cpu.eip(), kCodeVirt + a.offset_of(store + 1));
    expect_same_state(chained, stepper);

    ASSERT_EQ(chained.run(100).kind, CpuEventKind::Halted);
    ASSERT_EQ(stepper.step_to_stop(100).kind, CpuEventKind::Halted);
    EXPECT_NE(chained.cpu.reg(Reg::Ebx), 0x11111111u)
        << "the stale predecoded marker ran";
    expect_same_state(chained, stepper);
  }
}

TEST(ChainEngine, StoreIntoLaterPageOfSameTraceInvalidatesAtThePageChange) {
  // The store hits an op on the trace's second page, so the ops right
  // after it (on the first page) pass their version check; the page
  // change is the first place the stepper re-decodes changed bytes.
  Asm a;
  const int ptr = a.addr_imm(mov_ri(Reg::Edi, 0), 0, 0);
  a.add(mov_ri(Reg::Eax, 0x55667788));
  a.add(mem_op(Op::Mov, Reg::Eax, Reg::Edi, 0, false));
  a.add(mov_ri(Reg::Edx, 1));
  a.add(alu_rr(Op::Add, Reg::Edx, Reg::Edx));
  const int hop = a.branch(jmp(), 0);  // widened onto the next page
  a.pad_to_page();
  const int marker = a.add(mov_ri(Reg::Ebx, 0x11111111));
  a.set_target(hop, marker);
  a.set_imm_target(ptr, marker, 1);
  a.add(nullary(Op::Hlt));
  const std::vector<std::uint8_t> program = a.assemble(kCodeVirt);
  ASSERT_EQ(a.offset_of(marker), static_cast<std::size_t>(kPageSize));

  Rig chained, stepper;
  chained.load(program);
  stepper.load(program);
  CpuEvent event{};
  EXPECT_EQ(chained.cpu.run_block(100, nullptr, event), 6u)
      << "the trace ran the marker from stale predecode";
  EXPECT_EQ(chained.cpu.block_invalidations(), 1u);
  for (int i = 0; i < 6; ++i) stepper.cpu.step();
  EXPECT_EQ(chained.cpu.eip(), kCodeVirt + kPageSize);
  expect_same_state(chained, stepper);

  ASSERT_EQ(chained.run(100).kind, CpuEventKind::Halted);
  ASSERT_EQ(stepper.step_to_stop(100).kind, CpuEventKind::Halted);
  EXPECT_EQ(chained.cpu.reg(Reg::Ebx), 0x55667788u);
  expect_same_state(chained, stepper);
}

// Sets `*latch` on a write to offset 0, like the machine's crash port.
class LatchDevice : public Device {
 public:
  explicit LatchDevice(bool& latch) : latch_(latch) {}
  std::uint32_t mmio_read(std::uint32_t) override { return 0; }
  void mmio_write(std::uint32_t offset, std::uint32_t) override {
    if (offset == 0) latch_ = true;
  }

 private:
  bool& latch_;
};

TEST(ChainEngine, CrashPortStoreStopsMidTraceAtTheStepperCycle) {
  Asm a;
  a.add(mov_ri(Reg::Ecx, static_cast<std::int32_t>(kCrashMmio)));
  a.add(mov_ri(Reg::Eax, 7));
  a.add(mov_ri(Reg::Edx, 3));
  a.add(mem_op(Op::Mov, Reg::Eax, Reg::Ecx, 0, false));  // sets the latch
  a.add(alu_rr(Op::Add, Reg::Edx, Reg::Edx));
  a.add(mov_ri(Reg::Ebx, 9));
  a.add(nullary(Op::Hlt));
  const std::vector<std::uint8_t> program = a.assemble(kCodeVirt);

  Rig chained, stepper;
  bool chained_stop = false;
  bool stepper_stop = false;
  LatchDevice chained_port(chained_stop);
  LatchDevice stepper_port(stepper_stop);
  chained.bus.attach(kCrashMmio, kPageSize, &chained_port);
  stepper.bus.attach(kCrashMmio, kPageSize, &stepper_port);
  chained.load(program);
  stepper.load(program);

  CpuEvent event{};
  EXPECT_EQ(chained.cpu.run_block(100, &chained_stop, event), 4u);
  EXPECT_TRUE(chained_stop);
  EXPECT_EQ(event.kind, CpuEventKind::Executed);
  while (!stepper_stop) stepper.cpu.step();
  EXPECT_EQ(stepper.cpu.cycles(), 4u);
  EXPECT_EQ(chained.cpu.reg(Reg::Edx), 3u) << "ran past the stop";
  expect_same_state(chained, stepper);
}

// Flushes the whole TLB on any write, like the machine's TLB port.
class FlushDevice : public Device {
 public:
  explicit FlushDevice(Mmu& mmu) : mmu_(mmu) {}
  std::uint32_t mmio_read(std::uint32_t) override { return 0; }
  void mmio_write(std::uint32_t, std::uint32_t) override { mmu_.flush_tlb(); }

 private:
  Mmu& mmu_;
};

TEST(ChainEngine, TlbFlushStoreMidTraceForcesTheNextFetchTranslation) {
  // After the flush the next op sits on the same page, so only the
  // epoch check can send it through translate: the stepper's fetch
  // refills the code page right there, and so must the trace.
  Asm a;
  a.add(mov_ri(Reg::Ecx, static_cast<std::int32_t>(kTlbMmio)));
  a.add(mem_op(Op::Mov, Reg::Eax, Reg::Ecx, 0, false));  // flush
  a.add(mov_ri(Reg::Edx, 1));
  a.add(alu_rr(Op::Add, Reg::Edx, Reg::Edx));
  a.add(nullary(Op::Hlt));
  const std::vector<std::uint8_t> program = a.assemble(kCodeVirt);

  Rig chained, stepper;
  FlushDevice chained_tlb(chained.cpu.mmu());
  FlushDevice stepper_tlb(stepper.cpu.mmu());
  chained.bus.attach(kTlbMmio, kPageSize, &chained_tlb);
  stepper.bus.attach(kTlbMmio, kPageSize, &stepper_tlb);
  chained.load(program);
  stepper.load(program);

  CpuEvent event{};
  EXPECT_EQ(chained.cpu.run_block(100, nullptr, event), 5u);
  EXPECT_EQ(event.kind, CpuEventKind::Halted);
  ASSERT_EQ(stepper.step_to_stop(100).kind, CpuEventKind::Halted);
  std::uint32_t paddr = 0;
  EXPECT_TRUE(chained.cpu.mmu().probe(kCodeVirt, Access::Execute, 0, paddr))
      << "the code page was not refilled after the flush";
  expect_same_state(chained, stepper);
}

// ---- fused groups ----

// A binop group (ops 4-8) after a push/pop pair that puts the stack
// page in the TLB for both engines, then minic's compare idiom, which
// runs op by op.
struct FusedProgram {
  std::vector<std::uint8_t> bytes;
  std::uint32_t interior_vaddr = 0;  // op 6, inside the binop group
};

FusedProgram fused_program() {
  Asm a;
  a.add(mov_ri(Reg::Eax, 5));
  a.add(mov_ri(Reg::Ecx, 7));
  a.add(push_r(Reg::Ebx));
  a.add(pop_r(Reg::Ebx));
  a.add(push_r(Reg::Eax));  // binop: ecx = 9, eax = 5 + 9
  a.add(mov_ri(Reg::Eax, 9));
  const int interior = a.add(alu_rr(Op::Mov, Reg::Ecx, Reg::Eax));
  a.add(pop_r(Reg::Eax));
  a.add(alu_rr(Op::Add, Reg::Eax, Reg::Ecx));
  a.add(alu_rr(Op::Cmp, Reg::Eax, Reg::Ecx));  // edx = 14 < 9
  a.add(setcc(Cond::L, Reg::Edx));
  a.add(movzx_r8(Reg::Edx, Reg::Edx));
  a.add(alu_rr(Op::Test, Reg::Edx, Reg::Edx));
  a.add(nullary(Op::Hlt));
  FusedProgram out;
  out.bytes = a.assemble(kCodeVirt);
  out.interior_vaddr =
      kCodeVirt + static_cast<std::uint32_t>(a.offset_of(interior));
  return out;
}

TEST(ChainEngine, BudgetEndingInsideAFusedGroupRunsItsOpsSingly) {
  // One dispatch of k ops for every k: a group that does not fit the
  // budget runs op by op, so the dispatch stops on the stepper's exact
  // op, with its stack slot, registers, flags and cycles.
  const FusedProgram program = fused_program();
  constexpr std::uint32_t kSlot = kBootStackTop - 4;
  for (std::uint64_t k = 1; k <= 14; ++k) {
    SCOPED_TRACE("budget " + std::to_string(k));
    Rig chained, stepper;
    chained.load(program.bytes);
    stepper.load(program.bytes);
    CpuEvent event{};
    EXPECT_EQ(chained.cpu.run_block(k, nullptr, event), k);
    for (std::uint64_t i = 0; i < k; ++i) stepper.cpu.step();
    expect_same_state(chained, stepper);
    EXPECT_EQ(chained.memory.read32(phys_of_virt(kSlot)),
              stepper.memory.read32(phys_of_virt(kSlot)));
    EXPECT_EQ(chained.memory.page_version(phys_of_virt(kSlot)),
              stepper.memory.page_version(phys_of_virt(kSlot)));
    // The group heads op 4 and needs 5 ops.
    EXPECT_EQ(chained.cpu.fused_groups(), std::uint64_t{k >= 9});
    EXPECT_EQ(chained.cpu.fused_declines(), std::uint64_t{k >= 5 && k < 9});
  }
  Rig done;
  done.load(program.bytes);
  ASSERT_EQ(done.run(100).kind, CpuEventKind::Halted);
  EXPECT_EQ(done.cpu.reg(Reg::Eax), 14u);
  EXPECT_EQ(done.cpu.reg(Reg::Ecx), 9u);
  EXPECT_EQ(done.cpu.reg(Reg::Edx), 0u);
}

TEST(ChainEngine, BreakpointOnAFusedGroupInteriorOpRefusesTheBlock) {
  // The stepper triggers on the interior op's address; a fused group
  // must not run past it, so every block holding it is refused and the
  // Breakpoint event lands where the stepper has it.
  const FusedProgram program = fused_program();
  Rig chained, stepper;
  chained.load(program.bytes);
  stepper.load(program.bytes);
  chained.cpu.arm_breakpoint(0, program.interior_vaddr);
  stepper.cpu.arm_breakpoint(0, program.interior_vaddr);

  CpuEvent event{};
  EXPECT_EQ(chained.cpu.run_block(100, nullptr, event), 0u);
  EXPECT_EQ(chained.cpu.block_fallbacks(), 1u);
  const CpuEvent chained_stop = chained.run(100);
  const CpuEvent stepper_stop = stepper.step_to_stop(100);
  ASSERT_EQ(chained_stop.kind, CpuEventKind::Breakpoint);
  ASSERT_EQ(stepper_stop.kind, CpuEventKind::Breakpoint);
  EXPECT_EQ(chained.cpu.eip(), program.interior_vaddr);
  EXPECT_EQ(chained.cpu.fused_groups(), 0u);
  expect_same_state(chained, stepper);
}

}  // namespace
}  // namespace kfi::vm
