#include "isa/disasm.h"

#include "isa/decode.h"
#include "support/strings.h"

namespace kfi::isa {
namespace {

std::string operand_text(const Operand& op) {
  switch (op.kind) {
    case OperandKind::None:
      return "";
    case OperandKind::Reg:
      return "%" + std::string(reg_name(op.reg));
    case OperandKind::Reg8:
      return "%" + std::string(reg8_name(op.reg));
    case OperandKind::Mem:
    case OperandKind::Mem8: {
      const MemRef& m = op.mem;
      if (!m.has_base) {
        return kfi::hex32_prefixed(static_cast<std::uint32_t>(m.disp));
      }
      std::string out;
      if (m.disp != 0) {
        if (m.disp < 0) {
          // Negated in uint32_t: -INT32_MIN overflows int32_t.
          out += "-0x" + kfi::format("%x",
                                     0u - static_cast<std::uint32_t>(m.disp));
        } else {
          out += "0x" + kfi::format("%x", m.disp);
        }
      }
      out += "(%" + std::string(reg_name(m.base)) + ")";
      return out;
    }
    case OperandKind::Imm:
      if (op.imm < 0) {
        return kfi::format("$-0x%x", 0u - static_cast<std::uint32_t>(op.imm));
      }
      return kfi::format("$0x%x", op.imm);
  }
  return "";
}

}  // namespace

std::string disassemble(const Instruction& in, std::uint32_t pc) {
  const std::uint32_t next = pc + in.length;
  switch (in.op) {
    case Op::Invalid:
      return "(bad)";
    case Op::Jcc:
      return "j" + std::string(cond_name(in.cond)) + " " +
             kfi::hex32(next + static_cast<std::uint32_t>(in.rel));
    case Op::Setcc:
      return "set" + std::string(cond_name(in.cond)) + " " +
             operand_text(in.dst);
    case Op::Jmp:
      return "jmp " + kfi::hex32(next + static_cast<std::uint32_t>(in.rel));
    case Op::Call:
      return "call " + kfi::hex32(next + static_cast<std::uint32_t>(in.rel));
    case Op::JmpInd:
      return "jmp *" + operand_text(in.src);
    case Op::CallInd:
      return "call *" + operand_text(in.src);
    case Op::Int:
      return kfi::format("int $0x%x", in.imm8);
    case Op::In:
      return "in (%dx),%al";
    default:
      break;
  }

  std::string text{op_name(in.op)};
  const std::string dst = operand_text(in.dst);
  const std::string src = operand_text(in.src);
  // AT&T order: source first.
  if (!src.empty() && !dst.empty()) {
    text += " " + src + "," + dst;
  } else if (!src.empty()) {
    text += " " + src;
  } else if (!dst.empty()) {
    text += " " + dst;
  }
  return text;
}

std::string disassemble_bytes(const std::uint8_t* bytes, std::size_t avail,
                              std::uint32_t pc, std::size_t* length_out) {
  Instruction instr;
  const DecodeStatus status = decode(bytes, avail, instr);
  if (length_out != nullptr) *length_out = instr.length;
  if (status != DecodeStatus::Ok) return "(bad)";
  return disassemble(instr, pc);
}

}  // namespace kfi::isa
