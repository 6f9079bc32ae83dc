#include "isa/disasm.h"

#include <gtest/gtest.h>

#include <vector>

namespace kfi::isa {
namespace {

std::string disasm(std::initializer_list<std::uint8_t> bytes,
                   std::uint32_t pc = 0) {
  std::vector<std::uint8_t> buf(bytes);
  return disassemble_bytes(buf.data(), buf.size(), pc, nullptr);
}

TEST(Disasm, PaperStyleBranch) {
  // Table 6: "74 56  je c01144f4" decoded at c014449c.
  EXPECT_EQ(disasm({0x74, 0x56}, 0xC011449Cu), "je c01144f4");
  EXPECT_EQ(disasm({0x7C, 0x56}, 0xC011449Cu), "jl c01144f4");
}

TEST(Disasm, PaperStyleLongBranch) {
  // Table 6: "0f 84 ed 00 00 00  je c013a9bd" at c013a8ca.
  EXPECT_EQ(disasm({0x0F, 0x84, 0xED, 0x00, 0x00, 0x00}, 0xC013A8CAu),
            "je c013a9bd");
}

TEST(Disasm, AttOperandOrder) {
  // "89 45 c0  mov %eax,-0x40(%ebp)" — source first.
  EXPECT_EQ(disasm({0x89, 0x45, 0xC0}), "mov %eax,-0x40(%ebp)");
  EXPECT_EQ(disasm({0x8B, 0x51, 0x0C}), "mov 0xc(%ecx),%edx");
}

TEST(Disasm, Movzbl) {
  EXPECT_EQ(disasm({0x0F, 0xB6, 0x42, 0x1B}), "movzbl 0x1b(%edx),%eax");
}

TEST(Disasm, TestAndXor) {
  EXPECT_EQ(disasm({0x85, 0xD2}), "test %edx,%edx");
  EXPECT_EQ(disasm({0x31, 0xD2}), "xor %edx,%edx");
  EXPECT_EQ(disasm({0x34, 0x56}), "xor $0x56,%al");
}

TEST(Disasm, Ud2PrintsAsPaperDoes) {
  EXPECT_EQ(disasm({0x0F, 0x0B}), "ud2a");
}

TEST(Disasm, LretAndPop) {
  EXPECT_EQ(disasm({0xCB}), "lret");
  EXPECT_EQ(disasm({0x5D}), "pop %ebp");
}

TEST(Disasm, InInstruction) {
  EXPECT_EQ(disasm({0xEC}), "in (%dx),%al");
}

TEST(Disasm, Int32MinDisplacementAndImmediate) {
  // A flipped instruction can carry disp32 or imm32 = INT32_MIN, whose
  // magnitude does not fit in int32_t.
  // mov %eax,-0x80000000(%ebx): 89 /r, mod=10 rm=ebx, disp32.
  EXPECT_EQ(disasm({0x89, 0x83, 0x00, 0x00, 0x00, 0x80}),
            "mov %eax,-0x80000000(%ebx)");
  // mov $-0x80000000,%eax: B8+r imm32.
  EXPECT_EQ(disasm({0xB8, 0x00, 0x00, 0x00, 0x80}), "mov $-0x80000000,%eax");
}

TEST(Disasm, BadBytes) {
  EXPECT_EQ(disasm({0xF1}), "(bad)");
}

TEST(Disasm, CallAndJmpTargets) {
  // call rel32 = -0x10 from pc 0x1000, next = 0x1005 -> target 0xff5.
  EXPECT_EQ(disasm({0xE8, 0xF0, 0xFF, 0xFF, 0xFF}, 0x1000), "call 00000ff5");
  EXPECT_EQ(disasm({0xEB, 0xFE}, 0x2000), "jmp 00002000");
}

TEST(Disasm, IndirectForms) {
  EXPECT_EQ(disasm({0xFF, 0xD0}), "call *%eax");
  EXPECT_EQ(disasm({0xFF, 0xE3}), "jmp *%ebx");
}

TEST(Disasm, IntSyscall) {
  EXPECT_EQ(disasm({0xCD, 0x80}), "int $0x80");
}

TEST(Disasm, AbsoluteMemOperand) {
  EXPECT_EQ(disasm({0x8B, 0x0D, 0x00, 0x10, 0x20, 0xC0}),
            "mov 0xc0201000,%ecx");
}

TEST(Disasm, LengthOutReportsDecodedLength) {
  const std::uint8_t buf[] = {0xB8, 1, 0, 0, 0};
  std::size_t length = 0;
  disassemble_bytes(buf, sizeof buf, 0, &length);
  EXPECT_EQ(length, 5u);
}

}  // namespace
}  // namespace kfi::isa
