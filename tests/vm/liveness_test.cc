// Unit tests for vm::ByteLiveness, the golden capture pass's per-rung
// next-access recorder (DESIGN.md §7, layer 3), and for the access
// channels that report to it outside the CPU data path: instruction
// fetch on a decode-cache hit, the TSS read and trap-frame pushes of a
// trap delivery, and disk DMA in both directions.  The data path itself
// is covered in dtlb_test.cc; walks and the golden bits end to end in
// tests/inject/dead_byte_test.cc.
#include "vm/liveness.h"

#include <gtest/gtest.h>

#include <vector>

#include "disk/disk.h"
#include "vm/cpu.h"
#include "vm/hostmap.h"

namespace kfi::vm {
namespace {

TEST(ByteLiveness, NextAccessDecidesEachRung) {
  ByteLiveness live(kRamSize, 4);
  const std::uint32_t a = 0x3000;
  live.kernel_store(a, 4);  // before rung 0: decides nothing
  live.rung();              // rung 0
  live.read(a, 1);          // a: read first after rung 0
  live.write(a + 1, 1);     // a+1: written first
  live.rung();              // rung 1
  live.rung();              // rung 2
  live.write(a, 1);         // a: written first after rungs 1 and 2
  live.read(a + 1, 1);      // a+1: read first after rungs 1 and 2
  live.rung();              // rung 3: nothing follows
  EXPECT_FALSE(live.dead(a, 0));
  EXPECT_TRUE(live.dead(a + 1, 0));
  EXPECT_TRUE(live.dead(a, 1));
  EXPECT_TRUE(live.dead(a, 2));
  EXPECT_FALSE(live.dead(a + 1, 1));
  EXPECT_FALSE(live.dead(a + 1, 2));
  EXPECT_TRUE(live.dead(a, 3));
  EXPECT_TRUE(live.dead(a + 2, 0));        // stored, never accessed again
  EXPECT_TRUE(live.dead(0x800000, 0));     // never accessed at all
  EXPECT_EQ(live.footprint(),
            (std::vector<std::uint32_t>{a, a + 1, a + 2, a + 3}));
}

TEST(ByteLiveness, WalkedBytesAreNeverDead) {
  ByteLiveness live(kRamSize, 2);
  live.walk(0x5000, 4);
  live.rung();
  live.write(0x5000, 4);  // a later write does not make them dead
  live.rung();
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(live.walked(0x5000 + i));
    EXPECT_FALSE(live.dead(0x5000 + i, 0));
    EXPECT_FALSE(live.dead(0x5000 + i, 1));
  }
  EXPECT_TRUE(live.footprint().empty());
}

TEST(ByteLiveness, ManyRungsSpanSeveralMaskWords) {
  ByteLiveness live(kRamSize, 130);
  for (int k = 0; k < 129; ++k) live.rung();
  live.read(0x7000, 1);  // decides rungs 0..128 live
  live.rung();           // rung 129: nothing follows
  EXPECT_FALSE(live.dead(0x7000, 0));
  EXPECT_FALSE(live.dead(0x7000, 64));
  EXPECT_FALSE(live.dead(0x7000, 128));
  EXPECT_TRUE(live.dead(0x7000, 129));
}

struct CpuRig {
  PhysicalMemory memory{kRamSize};
  Bus bus;
  Cpu cpu{memory, bus};
  ByteLiveness live{kRamSize, 4};

  CpuRig() {
    HostMapper mapper(memory, kBootPgdPhys, kKernelPtePhys);
    mapper.map_range(kKernelBase, 0, kRamSize, kPteWrite);
    cpu.mmu().set_cr3(kBootPgdPhys);
    memory.write32(kTssPhys, kBootStackTop);
    cpu.set_liveness(&live);
  }
};

TEST(ByteLiveness, DecodeCacheHitsReportTheirFetch) {
  CpuRig rig;
  constexpr std::uint32_t kCode = 0xC0105000;
  const std::uint32_t code = phys_of_virt(kCode);
  rig.memory.write8(code, 0x90);  // nop
  rig.cpu.set_eip(kCode);
  rig.cpu.step();  // decode-cache miss
  rig.live.rung();
  rig.cpu.set_eip(kCode);
  ASSERT_EQ(rig.cpu.decode_hits(), 0u);
  rig.cpu.step();  // hit: no memory read, still a fetch
  ASSERT_EQ(rig.cpu.decode_hits(), 1u);
  rig.live.rung();
  EXPECT_FALSE(rig.live.dead(code, 0));
  EXPECT_TRUE(rig.live.dead(code, 1));
}

TEST(ByteLiveness, TrapDeliveryReadsTheTssAndWritesItsFrame) {
  CpuRig rig;
  rig.cpu.set_vector(static_cast<int>(isa::Trap::Timer), 0xC0110000);
  rig.cpu.set_cpl(3);
  rig.cpu.flags().intf = true;
  rig.live.rung();
  ASSERT_TRUE(rig.cpu.deliver_interrupt(isa::Trap::Timer));
  rig.live.rung();
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(rig.live.dead(kTssPhys + i, 0)) << "esp0 byte " << i;
  }
  // The six-word frame below esp0 is written before anything reads it.
  const std::uint32_t frame = phys_of_virt(kBootStackTop) - 24;
  for (std::uint32_t i = 0; i < 24; ++i) {
    EXPECT_TRUE(rig.live.dead(frame + i, 0));
  }
  // Neither is a CPU store, so neither joins the footprint.
  EXPECT_TRUE(rig.live.footprint().empty());
}

TEST(ByteLiveness, DiskDmaReadsAndWritesRam) {
  PhysicalMemory memory(kRamSize);
  disk::DiskImage image(4);
  disk::DiskDevice device(image, memory);
  ByteLiveness live(kRamSize, 2);
  device.set_liveness(&live);
  constexpr std::uint32_t kBuffer = 0x40000;
  device.mmio_write(disk::kRegBlock, 1);
  device.mmio_write(disk::kRegPhys, kBuffer);
  live.rung();
  device.mmio_write(disk::kRegCmd, disk::kCmdWrite);  // RAM -> disk
  live.rung();
  device.mmio_write(disk::kRegCmd, disk::kCmdRead);   // disk -> RAM
  for (std::uint32_t i = 0; i < disk::kBlockSize; i += 97) {
    EXPECT_FALSE(live.dead(kBuffer + i, 0));
    EXPECT_TRUE(live.dead(kBuffer + i, 1));
  }
  EXPECT_TRUE(live.dead(kBuffer + disk::kBlockSize, 0));
}

}  // namespace
}  // namespace kfi::vm
