// Unit tests for the operand-form-specialized opcode handlers.
//
// Trace micro-ops run a handler chosen by (op, dst kind, src kind):
// mov r<-r, r<-imm, r<-m and m<-r, push r, pop r, add/and/sub/cmp/test
// r,r, setcc r8 and movzx r<-r8 get a specialization; every other form
// keeps the generic per-opcode handler that step() always runs.  Each
// case below runs one specialized form once through its specialized
// and once through its generic handler, from identical states, and
// demands the same registers, flags word, eip, cpl, cycles, trap
// record, RAM, page versions, Mmu::epoch(), MMIO writes and write
// trace.  Memory forms run through every access class: TLB hit, TLB
// miss that fills, not-present #PF, read-only page, user vs supervisor,
// page-crossing word, claimed, unclaimed and unaligned MMIO, and esp as
// the operand of push and pop.
//
// The engine-identity proof is the isa fuzz battery (the stepper runs
// only generic handlers, the chained engine the specializations);
// these tests pin the handlers one form at a time, so a regression
// reports as "pop esp differs" rather than "digest diverged somewhere".
#include "vm/cpu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "vm/hostmap.h"
#include "vm/snapshot.h"

namespace kfi::vm {

// Drives the CPU's private handler tables.
struct CpuOpForms {
  static bool is_specialized(const isa::Instruction& in) {
    return Cpu::select_handler(in) != Cpu::generic_handler(in.op);
  }
  static bool run(Cpu& cpu, bool specialized, const isa::Instruction& in) {
    return specialized ? Cpu::select_handler(in)(cpu, in)
                       : Cpu::generic_handler(in.op)(cpu, in);
  }
  // True when `in`'s specialized handler is also the generic handler
  // of some opcode, i.e. step() could run it.
  static bool in_generic_table(const isa::Instruction& in) {
    for (int op = 0; op < isa::kOpCount; ++op) {
      if (Cpu::generic_handler(static_cast<isa::Op>(op)) ==
          Cpu::select_handler(in)) {
        return true;
      }
    }
    return false;
  }
};

namespace {

using isa::Cond;
using isa::Instruction;
using isa::MemRef;
using isa::Op;
using isa::Operand;
using isa::Reg;

constexpr std::uint32_t kCodeVirt = 0xC0105000;
constexpr std::uint32_t kDataVirt = 0xC0200000;
constexpr std::uint32_t kRoVirt = kDataVirt + kPageSize;      // read-only
constexpr std::uint32_t kUserVirt = kDataVirt + 2 * kPageSize;  // user rw
constexpr std::uint32_t kHandlerVirt = 0xC0110000;
constexpr std::uint32_t kUnmappedVirt = kKernelBase + kRamSize;
constexpr std::uint32_t kClaimedMmio = kConsoleMmio;
constexpr std::uint32_t kUnclaimedMmio = kMmioBase + 0x00100000;

class EchoDevice : public Device {
 public:
  std::uint32_t mmio_read(std::uint32_t offset) override {
    return 0xC0DE0000u | offset;
  }
  void mmio_write(std::uint32_t offset, std::uint32_t value) override {
    writes.emplace_back(offset, value);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> writes;
};

// Both rigs of a comparison are built once per test and reset to the
// same state before every case (a dirty-page restore, a TLB flush and
// fresh registers), so they run every case in lockstep.
struct Rig {
  PhysicalMemory memory;
  Bus bus;
  Cpu cpu;
  EchoDevice device;
  ChunkedSnapshot baseline;
  std::vector<std::uint64_t> memo;

  Rig() : memory(kRamSize), cpu(memory, bus) {
    HostMapper mapper(memory, kBootPgdPhys, kKernelPtePhys);
    mapper.map_range(kKernelBase, 0, kRamSize, kPteWrite);
    mapper.map(kRoVirt, phys_of_virt(kRoVirt), 0);
    mapper.map(kUserVirt, phys_of_virt(kUserVirt), kPteWrite | kPteUser);
    memory.write32(kTssPhys, kBootStackTop);
    for (int v = 0; v < 32; ++v) cpu.set_vector(v, kHandlerVirt);
    bus.attach(kClaimedMmio, kPageSize, &device);
    // Distinct bytes everywhere an access below can land.
    for (std::uint32_t v : {kDataVirt, kRoVirt, kUserVirt,
                            kUserVirt + kPageSize,
                            kUnmappedVirt - kPageSize}) {
      for (std::uint32_t i = 0; i < kPageSize; ++i) {
        memory.write8(phys_of_virt(v) + i, static_cast<std::uint8_t>(i * 7));
      }
    }
    baseline = memory.snapshot_pages();
    memo = memory.page_versions();
  }

  void reset() {
    memory.restore_pages(baseline, memo);
    cpu.mmu().set_cr3(kBootPgdPhys);  // empty TLB
    cpu.reset_fault_state();
    for (int r = 0; r < isa::kRegCount; ++r) {
      cpu.set_reg(static_cast<Reg>(r), 0x01010101u * (r + 1) + 0x80);
    }
    cpu.set_eip(kCodeVirt);
    cpu.set_cpl(0);
    cpu.set_cycles(0);
    device.writes.clear();
  }
};

struct Rigs {
  Rig specialized;
  Rig generic;
};

// Machine state before the handler runs; both rigs get the same one.
struct Start {
  std::vector<std::pair<Reg, std::uint32_t>> regs;
  std::uint32_t flags = 0x2;
  std::vector<std::pair<std::uint32_t, Access>> warm;  // cpl-0 translates
  int cpl = 0;
};

struct Observed {
  bool ok = false;
  std::vector<std::uint32_t> regs;
  std::uint32_t flags = 0;
  std::uint32_t eip = 0;
  int cpl = 0;
  std::uint64_t cycles = 0;
  TrapRecord trap;
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> versions;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mmio_writes;
};

Observed run_form(Rig& rig, const Instruction& in, const Start& start,
                  bool specialized) {
  for (const auto& [r, v] : start.regs) rig.cpu.set_reg(r, v);
  rig.cpu.flags() = isa::Flags::from_word(start.flags);
  std::uint32_t paddr = 0;
  for (const auto& [vaddr, access] : start.warm) {
    EXPECT_EQ(rig.cpu.mmu().translate(vaddr, access, 0, paddr),
              TranslateStatus::Ok);
  }
  rig.cpu.set_cpl(start.cpl);

  Observed o;
  o.ok = CpuOpForms::run(rig.cpu, specialized, in);
  for (int r = 0; r < isa::kRegCount; ++r) {
    o.regs.push_back(rig.cpu.reg(static_cast<Reg>(r)));
  }
  o.flags = rig.cpu.flags().to_word();
  o.eip = rig.cpu.eip();
  o.cpl = rig.cpu.cpl();
  o.cycles = rig.cpu.cycles();
  o.trap = rig.cpu.last_trap();
  o.epoch = rig.cpu.mmu().epoch();
  o.versions = rig.memory.page_versions();
  o.mmio_writes = rig.device.writes;
  return o;
}

// Runs `in` both ways from `start` and compares everything.  Both rigs
// start from identical RAM and every store bumps its page's version, so
// equal versions plus equal bytes on the pages this case wrote mean
// equal RAM.
void expect_same(Rigs& rigs, const Instruction& in, const Start& start) {
  ASSERT_TRUE(CpuOpForms::is_specialized(in));
  rigs.specialized.reset();
  rigs.generic.reset();
  const std::vector<std::uint64_t> before =
      rigs.specialized.memory.page_versions();
  const Observed a = run_form(rigs.specialized, in, start, true);
  const Observed b = run_form(rigs.generic, in, start, false);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.eip, b.eip);
  EXPECT_EQ(a.cpl, b.cpl);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.trap.trap, b.trap.trap);
  EXPECT_EQ(a.trap.error_code, b.trap.error_code);
  EXPECT_EQ(a.trap.fault_addr, b.trap.fault_addr);
  EXPECT_EQ(a.trap.faulting_eip, b.trap.faulting_eip);
  EXPECT_EQ(a.trap.faulting_cpl, b.trap.faulting_cpl);
  EXPECT_EQ(a.trap.cycle, b.trap.cycle);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.mmio_writes, b.mmio_writes);
  ASSERT_EQ(a.versions, b.versions);
  for (std::size_t page = 0; page < a.versions.size(); ++page) {
    if (a.versions[page] == before[page]) continue;
    const std::uint32_t paddr = static_cast<std::uint32_t>(page) * kPageSize;
    EXPECT_EQ(std::memcmp(rigs.specialized.memory.raw(paddr),
                          rigs.generic.memory.raw(paddr), kPageSize),
              0)
        << "RAM differs on page " << page;
  }
}

Instruction make(Op op, Operand dst, Operand src) {
  Instruction in;
  in.op = op;
  in.dst = dst;
  in.src = src;
  in.length = 3;
  return in;
}

Operand mem(Reg base, std::int32_t disp) {
  MemRef m;
  m.has_base = true;
  m.base = base;
  m.disp = disp;
  return Operand::make_mem(m);
}

Operand abs_mem(std::uint32_t addr) {
  MemRef m;
  m.disp = static_cast<std::int32_t>(addr);
  return Operand::make_mem(m);
}

// A data address and the machine state it is reached under.
struct AccessClass {
  const char* name;
  std::uint32_t vaddr;
  std::vector<std::pair<std::uint32_t, Access>> warm;
  int cpl;
};

std::vector<AccessClass> access_classes() {
  const auto R = Access::Read;
  const auto W = Access::Write;
  return {
      {"tlb hit", kDataVirt + 8, {{kDataVirt, W}}, 0},
      {"tlb read-only hit", kDataVirt + 8, {{kDataVirt, R}}, 0},
      {"tlb miss fills", kDataVirt + 8, {}, 0},
      {"not present", kUnmappedVirt + 8, {}, 0},
      {"read-only page, warm", kRoVirt + 4, {{kRoVirt, R}}, 0},
      {"read-only page, cold", kRoVirt + 4, {}, 0},
      {"user on supervisor page", kDataVirt + 8, {{kDataVirt, W}}, 3},
      {"user on user page", kUserVirt + 8, {{kUserVirt, W}}, 3},
      {"user on user page, cold", kUserVirt + 8, {}, 3},
      {"page-crossing word", kUserVirt + 0xFFE,
       {{kUserVirt, W}, {kUserVirt + kPageSize, W}}, 0},
      {"page-crossing word, read-only second page", kDataVirt + 0xFFD,
       {{kDataVirt, W}, {kRoVirt, R}}, 0},
      {"page-crossing word, unmapped second page", kUnmappedVirt - 2,
       {{kUnmappedVirt - kPageSize, W}}, 0},
      {"mmio", kClaimedMmio + 4, {}, 0},
      {"unaligned mmio", kClaimedMmio + 2, {}, 0},
      {"unclaimed mmio", kUnclaimedMmio, {}, 0},
      {"user mmio", kClaimedMmio + 4, {}, 3},
  };
}

TEST(OpForms, RegisterFormsMatchGeneric) {
  Rigs rigs;
  const std::uint32_t values[] = {0,          1,          5,
                                  7,          0x7FFFFFFF, 0x80000000,
                                  0xFFFFFFFF, 0x000000FF, 0x12345680};
  const Reg regs[] = {Reg::Eax, Reg::Ebx, Reg::Esp};
  const Op alu_ops[] = {Op::Add, Op::And, Op::Sub, Op::Cmp, Op::Test};
  for (const std::uint32_t flags : {0x2u, 0x8D7u}) {  // all five set
    for (const Reg d : regs) {
      for (const Reg s : regs) {
        for (const std::uint32_t a : values) {
          for (const std::uint32_t b : values) {
            SCOPED_TRACE(testing::Message()
                         << "dst " << static_cast<int>(d) << "=" << a
                         << " src " << static_cast<int>(s) << "=" << b
                         << " flags " << flags);
            Start start;
            start.regs = {{d, a}, {s, b}};
            start.flags = flags;
            const Operand dst = Operand::make_reg(d);
            for (const Op op : alu_ops) {
              expect_same(rigs, make(op, dst, Operand::make_reg(s)), start);
            }
            expect_same(rigs, make(Op::Mov, dst, Operand::make_reg(s)), start);
            expect_same(rigs, make(Op::Movzx8, dst, Operand::make_reg8(s)),
                        start);
          }
          Start start;
          start.regs = {{d, 0x5A5A5A5A}};
          const Operand imm = Operand::make_imm(static_cast<std::int32_t>(a));
          expect_same(rigs, make(Op::Mov, Operand::make_reg(d), imm), start);
        }
      }
    }
  }
}

TEST(OpForms, SetccMatchesGenericForEveryCondition) {
  Rigs rigs;
  for (std::uint32_t flags = 0; flags < 32; ++flags) {
    // Spread the five status bits over CF, PF, ZF, SF and OF.
    const std::uint32_t word = 0x2 | (flags & 1) | ((flags & 2) << 1) |
                               ((flags & 4) << 4) | ((flags & 8) << 4) |
                               ((flags & 16) << 7);
    for (int cond = 0; cond < 16; ++cond) {
      SCOPED_TRACE(testing::Message() << "flags " << word << " cond " << cond);
      Start start;
      start.flags = word;
      start.regs = {{Reg::Ecx, 0xABCDEF00u | flags}};
      Instruction in = make(Op::Setcc, Operand::make_reg8(Reg::Ecx), {});
      in.cond = static_cast<Cond>(cond);
      expect_same(rigs, in, start);
    }
  }
}

TEST(OpForms, MemoryFormsMatchGenericOnEveryAccessClass) {
  Rigs rigs;
  for (const AccessClass& c : access_classes()) {
    SCOPED_TRACE(c.name);
    Start start;
    start.warm = c.warm;
    start.cpl = c.cpl;
    // mov r<-m and mov m<-r: base+disp (incl. the base register as the
    // other operand) and an absolute address.
    for (const std::int32_t disp : {0, -8, 8}) {
      start.regs = {{Reg::Ecx, c.vaddr - static_cast<std::uint32_t>(disp)},
                    {Reg::Eax, 0xA1B2C3D4}};
      for (const Reg r : {Reg::Eax, Reg::Ecx}) {
        SCOPED_TRACE(testing::Message() << "disp " << disp << " reg "
                                        << static_cast<int>(r));
        const Operand m = mem(Reg::Ecx, disp);
        expect_same(rigs, make(Op::Mov, Operand::make_reg(r), m), start);
        expect_same(rigs, make(Op::Mov, m, Operand::make_reg(r)), start);
      }
    }
    start.regs = {{Reg::Eax, 0xA1B2C3D4}};
    const Operand m = abs_mem(c.vaddr);
    expect_same(rigs, make(Op::Mov, Operand::make_reg(Reg::Edx), m), start);
    expect_same(rigs, make(Op::Mov, m, Operand::make_reg(Reg::Eax)), start);
    // push r writes at esp-4, pop r reads at esp; esp itself is also
    // the pushed value and the popped destination.
    for (const Reg r : {Reg::Eax, Reg::Esp}) {
      SCOPED_TRACE(testing::Message() << "stack reg " << static_cast<int>(r));
      start.regs = {{Reg::Eax, 0xA1B2C3D4}, {Reg::Esp, c.vaddr + 4}};
      expect_same(rigs, make(Op::Push, {}, Operand::make_reg(r)), start);
      start.regs = {{Reg::Eax, 0xA1B2C3D4}, {Reg::Esp, c.vaddr}};
      expect_same(rigs, make(Op::Pop, Operand::make_reg(r), {}), start);
    }
  }
}

TEST(OpForms, OtherFormsKeepTheGenericHandler) {
  const Operand eax = Operand::make_reg(Reg::Eax);
  const Operand al = Operand::make_reg8(Reg::Eax);
  const Operand bl = Operand::make_reg8(Reg::Ebx);
  const Operand m32 = mem(Reg::Ecx, 4);
  const Operand m8 = Operand::make_mem(m32.mem, /*byte=*/true);
  const Operand imm = Operand::make_imm(-3);
  std::vector<Instruction> generic;
  for (const Op op : {Op::Add, Op::Or, Op::And, Op::Sub, Op::Xor, Op::Cmp,
                      Op::Test}) {
    generic.push_back(make(op, al, bl));    // Reg8 ALU
    generic.push_back(make(op, m8, bl));    // Mem8 ALU
    generic.push_back(make(op, al, imm));   // Imm source, byte
    generic.push_back(make(op, eax, imm));  // Imm source
    generic.push_back(make(op, m32, eax));  // memory destination
    generic.push_back(make(op, eax, m32));  // memory source
  }
  generic.push_back(make(Op::Or, eax, Operand::make_reg(Reg::Ebx)));
  generic.push_back(make(Op::Xor, eax, Operand::make_reg(Reg::Ebx)));
  generic.push_back(make(Op::Mov, m32, imm));
  generic.push_back(make(Op::Mov, m8, bl));
  generic.push_back(make(Op::Mov, al, m8));
  generic.push_back(make(Op::Movzx8, eax, m8));
  generic.push_back(make(Op::Push, {}, imm));
  generic.push_back(make(Op::Push, {}, m32));
  generic.push_back(make(Op::Setcc, m8, {}));
  generic.push_back(make(Op::Lea, eax, m32));
  generic.push_back(make(Op::Inc, eax, {}));
  for (const Instruction& in : generic) {
    SCOPED_TRACE(testing::Message()
                 << isa::op_name(in.op) << " dst "
                 << static_cast<int>(in.dst.kind) << " src "
                 << static_cast<int>(in.src.kind));
    EXPECT_FALSE(CpuOpForms::is_specialized(in));
  }
}

TEST(OpForms, StepperTableHoldsNoSpecialization) {
  // step() dispatches through the generic table alone, so the stepper
  // oracle shares no specialized code with the chained engine.
  const Operand eax = Operand::make_reg(Reg::Eax);
  const Operand ebx = Operand::make_reg(Reg::Ebx);
  const std::vector<Instruction> forms = {
      make(Op::Mov, eax, ebx),
      make(Op::Mov, eax, Operand::make_imm(1)),
      make(Op::Mov, eax, mem(Reg::Ecx, 0)),
      make(Op::Mov, mem(Reg::Ecx, 0), eax),
      make(Op::Add, eax, ebx),
      make(Op::And, eax, ebx),
      make(Op::Sub, eax, ebx),
      make(Op::Cmp, eax, ebx),
      make(Op::Test, eax, ebx),
      make(Op::Setcc, Operand::make_reg8(Reg::Eax), {}),
      make(Op::Movzx8, eax, Operand::make_reg8(Reg::Ebx)),
      make(Op::Push, {}, eax),
      make(Op::Pop, eax, {}),
  };
  for (const Instruction& in : forms) {
    SCOPED_TRACE(isa::op_name(in.op));
    EXPECT_TRUE(CpuOpForms::is_specialized(in));
    EXPECT_FALSE(CpuOpForms::in_generic_table(in));
  }
}

}  // namespace
}  // namespace kfi::vm
