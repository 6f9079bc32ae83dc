// Unit tests for the CPU's guest data path: the inline TLB-hit fast
// path in front of read_v/write_v and the out-of-line code behind it.
//
// The inline path may only take an access that Mmu::probe proves is a
// permitted TLB hit inside one page — exactly where translate() would
// return the same frame with no side effect.  The differential cases
// below run every class of access (permitted hit, read-only and
// supervisor-only hits, TLB misses that fill, MMIO, page-crossing
// words with and without a fault on the second page) once through the
// inline entry and once through the out-of-line code alone, and demand
// the same value, trap, error code, Mmu::epoch(), page versions and
// RAM.  With a liveness recorder attached every access must leave the
// inline path to the out-of-line code, which records it, and must
// still have the same effect.  The remaining tests pin the data path against the
// stepper end to end: repeat accesses served from the TLB, refills
// after a snapshot restore, self-modifying code through a warmed
// pointer, and page-crossing byte splits.
//
// The engine-identity proof lives in the isa fuzz battery and the
// machine-level exec_engine tests; these tests pin the *mechanism*, so
// a regression reports as "a read-only hit took the fast path" rather
// than "digest diverged somewhere".
#include "vm/cpu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "../isa/program_fuzz.h"
#include "vm/hostmap.h"
#include "vm/snapshot.h"

namespace kfi::vm {

// Drives the CPU's private data path: `inline_path` enters through the
// inline accessors (fast path plus fallback), otherwise the access
// goes straight to the out-of-line code.
struct CpuDataPath {
  static bool read(Cpu& cpu, bool inline_path, std::uint32_t vaddr,
                   std::uint32_t size, std::uint32_t& value) {
    return inline_path ? cpu.read_v(vaddr, size, value)
                       : cpu.read_v_slow(vaddr, size, value);
  }
  static bool write(Cpu& cpu, bool inline_path, std::uint32_t vaddr,
                    std::uint32_t size, std::uint32_t value) {
    return inline_path ? cpu.write_v(vaddr, size, value)
                       : cpu.write_v_slow(vaddr, size, value);
  }
};

namespace {

using isa::Cond;
using isa::Op;
using isa::Reg;
using isa::fuzz::Asm;
using isa::fuzz::alu_rr;
using isa::fuzz::jcc;
using isa::fuzz::mem_op;
using isa::fuzz::mov_ri;
using isa::fuzz::nullary;
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
};

// mov esi, data; n x { store/load [esi] }; hlt — every data access after
// the first lands on the same page.
std::vector<std::uint8_t> same_page_program(int accesses) {
  Asm a;
  a.add(mov_ri(Reg::Esi, static_cast<std::int32_t>(kDataVirt)));
  a.add(mov_ri(Reg::Eax, 0x1234));
  for (int i = 0; i < accesses; ++i) {
    a.add(mem_op(Op::Mov, Reg::Eax, Reg::Esi,
                 4 * (i % 8), /*load=*/i % 2 != 0));
  }
  a.add(nullary(Op::Hlt));
  return a.assemble(kCodeVirt);
}

TEST(Dtlb, ChainedMatchesStepperAndHitsDtlb) {
  // 24 loads and stores to one data page: after the first access fills
  // the TLB, every later one is a permitted hit the inline path serves
  // without a walk.  Both engines must leave the same registers,
  // cycles and fill history (Mmu::epoch counts every fill).
  Rig fast;
  Rig step;
  const auto program = same_page_program(24);
  fast.load(program);
  step.load(program);
  const std::uint64_t epoch_before = fast.cpu.mmu().epoch();
  EXPECT_EQ(fast.run(1000).kind, CpuEventKind::Halted);
  CpuEvent event{};
  do {
    event = step.cpu.step();
  } while (event.kind == CpuEventKind::Executed);
  EXPECT_EQ(event.kind, CpuEventKind::Halted);
  for (int r = 0; r < isa::kRegCount; ++r) {
    EXPECT_EQ(fast.cpu.reg(static_cast<Reg>(r)),
              step.cpu.reg(static_cast<Reg>(r)))
        << "reg " << r;
  }
  EXPECT_EQ(fast.cpu.cycles(), step.cpu.cycles());
  EXPECT_EQ(fast.cpu.mmu().epoch(), step.cpu.mmu().epoch());
  // One fill for the code page and one for the data page: the other
  // 23 data accesses were TLB hits.
  EXPECT_EQ(fast.cpu.mmu().epoch() - epoch_before, 2u);
  std::uint32_t paddr = 0;
  EXPECT_TRUE(fast.cpu.mmu().probe(kDataVirt, Access::Write, 0, paddr));
  EXPECT_EQ(paddr, phys_of_virt(kDataVirt));
}

TEST(Dtlb, SnapshotRestoreForcesRefill) {
  // A checkpoint-rung restore rewrites RAM from a snapshot and reloads
  // cr3; the cr3 load flushes the TLB, so no data access after the
  // restore may be served inline until translate() has refilled its
  // page — a hit could otherwise read through a translation the
  // restored page tables no longer contain.  The rerun must replay the
  // first run's fill history exactly.
  Rig rig;
  rig.load(same_page_program(16));
  const ChunkedSnapshot snap = rig.memory.snapshot_pages();
  const std::uint64_t epoch_start = rig.cpu.mmu().epoch();
  EXPECT_EQ(rig.run(1000).kind, CpuEventKind::Halted);
  const std::uint64_t fills = rig.cpu.mmu().epoch() - epoch_start;
  const std::uint32_t eax = rig.cpu.reg(Reg::Eax);
  std::uint32_t paddr = 0;
  ASSERT_TRUE(rig.cpu.mmu().probe(kDataVirt, Access::Read, 0, paddr));

  std::vector<std::uint64_t> memo;
  rig.memory.restore_pages(snap, memo);
  rig.cpu.mmu().set_cr3(kBootPgdPhys);  // what every restore path does
  EXPECT_FALSE(rig.cpu.mmu().probe(kDataVirt, Access::Read, 0, paddr));
  rig.cpu.set_eip(kCodeVirt);
  rig.cpu.set_halted(false);
  const std::uint64_t epoch_restored = rig.cpu.mmu().epoch();
  EXPECT_EQ(rig.run(2000).kind, CpuEventKind::Halted);
  EXPECT_EQ(rig.cpu.mmu().epoch() - epoch_restored, fills);
  EXPECT_EQ(rig.cpu.reg(Reg::Eax), eax);
}

// ---- inline path vs out-of-line path, case by case ----

// Extra mappings on top of the Rig's supervisor read-write kernel map:
// the page after kDataVirt is read-only, the one after that user
// read-write.  The kernel map ends at kUnmappedVirt (no PGD entry).
constexpr std::uint32_t kRoVirt = kDataVirt + kPageSize;
constexpr std::uint32_t kUserVirt = kDataVirt + 2 * kPageSize;
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

struct DataRig : Rig {
  EchoDevice device;

  DataRig() {
    HostMapper mapper(memory, kBootPgdPhys, kKernelPtePhys);
    mapper.map(kRoVirt, phys_of_virt(kRoVirt), 0);
    mapper.map(kUserVirt, phys_of_virt(kUserVirt), kPteWrite | kPteUser);
    bus.attach(kClaimedMmio, kPageSize, &device);
    // Distinct bytes everywhere an access below can land.
    for (std::uint32_t v : {kDataVirt, kRoVirt, kUserVirt,
                            kUnmappedVirt - kPageSize}) {
      for (std::uint32_t i = 0; i < kPageSize; ++i) {
        memory.write8(phys_of_virt(v) + i, static_cast<std::uint8_t>(i * 7));
      }
    }
  }
};

struct DataCase {
  const char* name;
  std::vector<std::pair<std::uint32_t, Access>> warm;  // cpl-0 translates
  int cpl;
  bool write;
  std::uint32_t vaddr;
  std::uint32_t size;
  bool hit;  // Mmu::probe admits the access, so the inline path takes it
  bool ok;   // the access completes without a trap
};

// Everything an access can change, captured after it.
struct Observed {
  bool ok = false;
  std::uint32_t value = 0;
  TrapRecord trap;
  std::uint32_t eip = 0;
  std::uint32_t esp = 0;
  int cpl = 0;
  std::uint64_t cycles = 0;
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> versions;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mmio_writes;
  std::vector<std::uint8_t> ram;  // fault frames, partial stores, data
  std::vector<std::uint32_t> footprint;  // with a liveness recorder
};

// Runs one access after warming the TLB; with `record`, a liveness
// recorder is attached between the warm-up and the access.
Observed run_case(const DataCase& c, bool inline_path, bool& probe_hit,
                  bool record = false) {
  DataRig rig;
  std::uint32_t paddr = 0;
  for (const auto& [vaddr, access] : c.warm) {
    EXPECT_EQ(rig.cpu.mmu().translate(vaddr, access, 0, paddr),
              TranslateStatus::Ok);
  }
  ByteLiveness liveness(rig.memory.size(), 0);
  if (record) rig.cpu.set_liveness(&liveness);
  rig.cpu.set_cpl(c.cpl);
  probe_hit =
      rig.cpu.mmu().probe(c.vaddr, c.write ? Access::Write : Access::Read,
                          c.cpl, paddr) &&
      (c.size == 1 || (c.vaddr & kPageMask) <= kPageSize - 4);

  Observed o;
  o.value = 0x5A5A5A5A;
  o.ok = c.write ? CpuDataPath::write(rig.cpu, inline_path, c.vaddr, c.size,
                                      0xA1B2C3D4u & (c.size == 1 ? 0xFF : ~0u))
                 : CpuDataPath::read(rig.cpu, inline_path, c.vaddr, c.size,
                                     o.value);
  o.trap = rig.cpu.last_trap();
  o.eip = rig.cpu.eip();
  o.esp = rig.cpu.reg(Reg::Esp);
  o.cpl = rig.cpu.cpl();
  o.cycles = rig.cpu.cycles();
  o.epoch = rig.cpu.mmu().epoch();
  o.versions = rig.memory.page_versions();
  o.mmio_writes = rig.device.writes;
  o.ram = rig.memory.snapshot();
  o.footprint = liveness.footprint();
  rig.cpu.set_liveness(nullptr);
  return o;
}

std::vector<DataCase> data_cases() {
  const auto R = Access::Read;
  const auto W = Access::Write;
  return {
      {"read hit", {{kDataVirt, R}}, 0, false, kDataVirt + 8, 4, true, true},
      {"byte read hit", {{kDataVirt, R}}, 0, false, kDataVirt + 9, 1, true,
       true},
      {"write hit", {{kDataVirt, W}}, 0, true, kDataVirt + 8, 4, true, true},
      {"byte write hit", {{kDataVirt, W}}, 0, true, kDataVirt + 9, 1, true,
       true},
      {"unaligned word hit", {{kDataVirt, W}}, 0, true, kDataVirt + 0xFFB, 4,
       true, true},
      {"read of read-only hit", {{kRoVirt, R}}, 0, false, kRoVirt + 4, 4,
       true, true},
      {"write to read-only hit", {{kRoVirt, R}}, 0, true, kRoVirt + 4, 4,
       false, false},
      {"byte write to read-only hit", {{kRoVirt, R}}, 0, true, kRoVirt + 5, 1,
       false, false},
      {"user read of supervisor hit", {{kDataVirt, R}}, 3, false,
       kDataVirt + 8, 4, false, false},
      {"user write of supervisor hit", {{kDataVirt, W}}, 3, true,
       kDataVirt + 8, 4, false, false},
      {"user read of user hit", {{kUserVirt, R}}, 3, false, kUserVirt + 8, 4,
       true, true},
      {"user write of user hit", {{kUserVirt, W}}, 3, true, kUserVirt + 8, 4,
       true, true},
      {"read miss fills", {}, 0, false, kDataVirt + 8, 4, false, true},
      {"write miss fills", {}, 0, true, kDataVirt + 8, 4, false, true},
      {"write miss on read-only page", {}, 0, true, kRoVirt + 4, 4, false,
       false},
      {"read miss on unmapped page", {}, 0, false, kUnmappedVirt + 8, 4,
       false, false},
      {"mmio read", {}, 0, false, kClaimedMmio + 4, 4, false, true},
      {"mmio write", {}, 0, true, kClaimedMmio + 4, 4, false, true},
      {"mmio byte read", {}, 0, false, kClaimedMmio + 4, 1, false, false},
      {"mmio unaligned write", {}, 0, true, kClaimedMmio + 2, 4, false,
       false},
      {"unclaimed mmio read", {}, 0, false, kUnclaimedMmio, 4, false, false},
      {"user mmio write", {}, 3, true, kClaimedMmio + 4, 4, false, false},
      {"page-crossing read", {{kDataVirt, R}, {kRoVirt, R}}, 0, false,
       kDataVirt + 0xFFE, 4, false, true},
      {"page-crossing write", {{kUserVirt, W}, {kUserVirt + kPageSize, W}}, 0,
       true, kUserVirt + 0xFFD, 4, false, true},
      {"page-crossing write, read-only second page",
       {{kDataVirt, W}, {kRoVirt, R}}, 0, true, kDataVirt + 0xFFF, 4, false,
       false},
      {"page-crossing user read, supervisor second page",
       {{kUserVirt, R}, {kUserVirt + kPageSize, R}}, 3, false,
       kUserVirt + 0xFFE, 4, false, false},
      {"page-crossing read, unmapped second page",
       {{kUnmappedVirt - kPageSize, R}}, 0, false, kUnmappedVirt - 2, 4,
       false, false},
      {"page-crossing write, unmapped second page",
       {{kUnmappedVirt - kPageSize, W}}, 0, true, kUnmappedVirt - 3, 4,
       false, false},
  };
}

TEST(Dtlb, InlinePathMatchesSlowPathOnEveryAccessClass) {
  int hits = 0;
  for (const DataCase& c : data_cases()) {
    SCOPED_TRACE(c.name);
    bool hit_inline = false;
    bool hit_slow = false;
    const Observed a = run_case(c, /*inline_path=*/true, hit_inline);
    const Observed b = run_case(c, /*inline_path=*/false, hit_slow);
    EXPECT_EQ(hit_inline, c.hit) << "case classification";
    hits += hit_inline ? 1 : 0;
    EXPECT_EQ(a.ok, c.ok);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.trap.trap, b.trap.trap);
    EXPECT_EQ(a.trap.error_code, b.trap.error_code);
    EXPECT_EQ(a.trap.fault_addr, b.trap.fault_addr);
    EXPECT_EQ(a.eip, b.eip);
    EXPECT_EQ(a.esp, b.esp);
    EXPECT_EQ(a.cpl, b.cpl);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.versions, b.versions);
    EXPECT_EQ(a.mmio_writes, b.mmio_writes);
    EXPECT_TRUE(a.ram == b.ram) << "RAM differs";
  }
  EXPECT_GT(hits, 0);
}

TEST(Dtlb, LivenessRecorderTakesTheSlowPathWithTheSameEffect) {
  const std::vector<std::uint8_t> pristine = DataRig().memory.snapshot();
  for (const DataCase& c : data_cases()) {
    SCOPED_TRACE(c.name);
    bool hit_plain = false;
    bool hit_recorded = false;
    const Observed a = run_case(c, /*inline_path=*/true, hit_plain);
    const Observed b =
        run_case(c, /*inline_path=*/true, hit_recorded, /*record=*/true);
    // The mark on warmed TLB entries makes every probe miss, yet the
    // access translates, traps and fills exactly as without it.
    EXPECT_FALSE(hit_recorded);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.trap.trap, b.trap.trap);
    EXPECT_EQ(a.trap.error_code, b.trap.error_code);
    EXPECT_EQ(a.trap.fault_addr, b.trap.fault_addr);
    EXPECT_EQ(a.eip, b.eip);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.versions, b.versions);
    EXPECT_EQ(a.mmio_writes, b.mmio_writes);
    EXPECT_TRUE(a.ram == b.ram) << "RAM differs";
    // The footprint is the RAM a cpl-0 store changed; a faulting one
    // also pushed a trap frame, which is not part of it.
    std::vector<std::uint32_t> changed;
    for (std::uint32_t i = 0; i < pristine.size(); ++i) {
      if (b.ram[i] != pristine[i]) changed.push_back(i);
    }
    if (!c.write || c.cpl != 0) {
      EXPECT_TRUE(b.footprint.empty());
    } else if (c.ok) {
      EXPECT_EQ(b.footprint, changed);
    } else {
      EXPECT_TRUE(std::includes(changed.begin(), changed.end(),
                                b.footprint.begin(), b.footprint.end()));
    }
  }
}

TEST(Dtlb, GuestSmcThroughCachedPointerReDecodes) {
  // The store's target page is TLB-warmed by an earlier store, and
  // the target is the imm32 of an instruction later in the SAME
  // widened trace: the inline fast path must still bump the page
  // version, and the next op's version check must hand control back
  // so the rewritten bytes are re-decoded — exactly what the stepper
  // does.
  Asm a;
  a.add(mov_ri(Reg::Eax, static_cast<std::int32_t>(0xAABBCCDD)));
  const int ptr = a.addr_imm(mov_ri(Reg::Esi, 0), 0, 0);  // re-aimed below
  a.add(mem_op(Op::Mov, Reg::Eax, Reg::Esi, 0, /*load=*/false));  // warm
  a.add(mem_op(Op::Mov, Reg::Eax, Reg::Esi, 0, /*load=*/false));  // rewrite
  const int marker = a.add(mov_ri(Reg::Ebx, 0x11111111));
  a.set_imm_target(ptr, marker, 1);  // &imm32 of the marker mov
  a.add(nullary(Op::Hlt));

  Rig fast;
  Rig step;
  const auto program = a.assemble(kCodeVirt);
  ASSERT_FALSE(program.empty());
  fast.load(program);
  step.load(program);
  EXPECT_EQ(fast.run(1000).kind, CpuEventKind::Halted);
  CpuEvent event{};
  do {
    event = step.cpu.step();
  } while (event.kind == CpuEventKind::Executed);
  EXPECT_EQ(event.kind, CpuEventKind::Halted);
  EXPECT_EQ(step.cpu.reg(Reg::Ebx), 0xAABBCCDDu) << "stepper baseline";
  EXPECT_EQ(fast.cpu.reg(Reg::Ebx), 0xAABBCCDDu)
      << "the chained engine ran the stale predecoded marker";
  EXPECT_EQ(fast.cpu.cycles(), step.cpu.cycles());
}

TEST(Dtlb, PageCrossingAccessMatchesStepper) {
  // 32-bit store + loads straddling a page boundary: the out-of-line
  // path translates once per page (not per byte) but must leave the
  // same bytes on both pages, the same registers, and the same TLB
  // state as four byte-wise accesses would.
  for (const std::uint32_t off : {0xFFDu, 0xFFEu, 0xFFFu}) {
    SCOPED_TRACE(off);
    Asm a;
    a.add(mov_ri(Reg::Esi, static_cast<std::int32_t>(kDataVirt + off)));
    a.add(mov_ri(Reg::Eax, static_cast<std::int32_t>(0x44332211)));
    a.add(mem_op(Op::Mov, Reg::Eax, Reg::Esi, 0, /*load=*/false));
    a.add(mem_op(Op::Mov, Reg::Ebx, Reg::Esi, 0, /*load=*/true));
    a.add(mem_op(Op::Mov, Reg::Ecx, Reg::Esi, -8, /*load=*/true));
    a.add(nullary(Op::Hlt));
    const auto program = a.assemble(kCodeVirt);

    Rig fast;
    Rig step;
    fast.load(program);
    step.load(program);
    EXPECT_EQ(fast.run(1000).kind, CpuEventKind::Halted);
    CpuEvent event{};
    do {
      event = step.cpu.step();
    } while (event.kind == CpuEventKind::Executed);
    EXPECT_EQ(event.kind, CpuEventKind::Halted);
    EXPECT_EQ(fast.cpu.reg(Reg::Ebx), 0x44332211u);
    EXPECT_EQ(step.cpu.reg(Reg::Ebx), 0x44332211u);
    EXPECT_EQ(fast.cpu.reg(Reg::Ecx), step.cpu.reg(Reg::Ecx));
    // Byte-identical split across the boundary in both machines.
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(fast.memory.read8(phys_of_virt(kDataVirt + off + i)),
                step.memory.read8(phys_of_virt(kDataVirt + off + i)))
          << "byte " << i;
    }
    EXPECT_EQ(fast.memory.read8(phys_of_virt(kDataVirt + off)), 0x11u);
    EXPECT_EQ(fast.memory.read8(phys_of_virt(kDataVirt + off + 3)), 0x44u);
  }
}

}  // namespace
}  // namespace kfi::vm
