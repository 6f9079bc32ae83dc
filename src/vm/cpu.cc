#include "vm/cpu.h"

#include "trace/trace.h"

namespace kfi::vm {

using isa::Cond;
using isa::DecodeStatus;
using isa::Flags;
using isa::Instruction;
using isa::Op;
using isa::Operand;
using isa::OperandKind;
using isa::Reg;
using isa::Trap;

namespace {

bool parity_even(std::uint8_t byte) {
  return (__builtin_popcount(byte) & 1) == 0;
}

}  // namespace

Cpu::Cpu(PhysicalMemory& memory, Bus& bus)
    : memory_(memory), bus_(bus), mmu_(memory),
      decode_cache_(kDecodeCacheSize), block_cache_(kBlockCacheSize) {}

void Cpu::set_vector(int vector, std::uint32_t handler_vaddr) {
  vectors_[vector & 0xFF] = handler_vaddr;
}

void Cpu::arm_breakpoint(int index, std::uint32_t vaddr) {
  debug_[index & 3].enabled = true;
  debug_[index & 3].addr = vaddr;
}

void Cpu::disarm_breakpoint(int index) { debug_[index & 3].enabled = false; }

// ---------------------------------------------------------------------
// Trap delivery
// ---------------------------------------------------------------------

bool Cpu::deliver(Trap trap, std::uint32_t error_code, std::uint32_t addr,
                  int depth) {
  if (depth > 1) {
    // Fault while delivering the double fault: the machine is gone
    // ("triple fault" — a hard hang on real hardware).
    dead_ = true;
    return false;
  }

  last_trap_.trap = trap;
  last_trap_.error_code = error_code;
  last_trap_.fault_addr = addr;
  last_trap_.faulting_eip = eip_;
  last_trap_.faulting_cpl = cpl_;
  last_trap_.cycle = cycles_;

  if (trace_sink_ != nullptr) {
    // Memory faults get their own kind (the propagation analysis keys
    // on them); the periodic timer is separated so it doesn't read as
    // an error event in a forensics timeline.
    const trace::EventKind kind =
        trap == Trap::PageFault || trap == Trap::GpFault
            ? trace::EventKind::MemFault
            : (trap == Trap::Timer ? trace::EventKind::TimerIrq
                                   : trace::EventKind::TrapEntry);
    trace_sink_->record(kind, cycles_, static_cast<std::uint32_t>(trap),
                        error_code, eip_, addr);
  }

  const std::uint32_t handler = vectors_[static_cast<int>(trap)];
  if (handler == 0) {
    if (trap == Trap::DoubleFault) {
      dead_ = true;
      return false;
    }
    return deliver(Trap::DoubleFault, static_cast<std::uint32_t>(trap), addr,
                   depth + 1);
  }

  // Stack switch on privilege change: esp0 lives in the TSS page.
  std::uint32_t new_esp = regs_[static_cast<int>(Reg::Esp)];
  if (cpl_ == 3) {
    if (!memory_.contains(kTssPhys, 4)) {
      dead_ = true;
      return false;
    }
    new_esp = memory_.read32(kTssPhys);
    note_read(kTssPhys, 4);
  }

  const std::uint32_t old_esp = regs_[static_cast<int>(Reg::Esp)];
  const std::uint32_t old_eflags = flags_.to_word();
  const std::uint32_t old_eip = eip_;
  const std::uint32_t old_cpl = static_cast<std::uint32_t>(cpl_);

  // Push the 6-word trap frame with supervisor rights.
  const std::uint32_t words[6] = {addr,      error_code, old_cpl,
                                  old_esp,   old_eflags, old_eip};
  for (const std::uint32_t word : words) {
    new_esp -= 4;
    std::uint32_t paddr = 0;
    bool ok = true;
    if ((new_esp & kPageMask) <= kPageSize - 4) {
      ok = mmu_.translate(new_esp, Access::Write, 0, paddr) ==
           TranslateStatus::Ok;
      if (ok) {
        memory_.write32(paddr, word);
        if (liveness_ != nullptr) liveness_->write(paddr, 4);
      }
    } else {
      for (int i = 0; i < 4 && ok; ++i) {
        ok = mmu_.translate(new_esp + i, Access::Write, 0, paddr) ==
             TranslateStatus::Ok;
        if (ok) {
          memory_.write8(paddr, static_cast<std::uint8_t>(word >> (8 * i)));
          if (liveness_ != nullptr) liveness_->write(paddr, 1);
        }
      }
    }
    if (!ok) {
      return deliver(Trap::DoubleFault, static_cast<std::uint32_t>(trap),
                     new_esp, depth + 1);
    }
  }

  regs_[static_cast<int>(Reg::Esp)] = new_esp;
  cpl_ = 0;
  eip_ = handler;
  flags_.intf = false;  // interrupt gate semantics
  halted_ = false;
  return true;
}

bool Cpu::raise(Trap trap, std::uint32_t error_code, std::uint32_t addr) {
  deliver(trap, error_code, addr, 0);
  return false;  // instruction aborted
}

bool Cpu::deliver_interrupt(Trap trap) {
  if (dead_ || !flags_.intf) return false;
  halted_ = false;
  return deliver(trap, 0, 0, 0);
}

// ---------------------------------------------------------------------
// Guest memory access
// ---------------------------------------------------------------------

bool Cpu::read_v_slow(std::uint32_t vaddr, std::uint32_t size,
                      std::uint32_t& value) {
  std::uint32_t paddr = 0;
  const TranslateStatus status =
      mmu_.translate(vaddr, Access::Read, cpl_, paddr);
  switch (status) {
    case TranslateStatus::Ok:
      break;
    case TranslateStatus::Mmio: {
      if (size != 4 || (vaddr & 3) != 0) {
        return raise(Trap::GpFault, 0, vaddr);
      }
      if (!bus_.read32(vaddr, value)) return raise(Trap::GpFault, 0, vaddr);
      return true;
    }
    case TranslateStatus::NotPresent:
      return raise(Trap::PageFault, (cpl_ == 3 ? kPfErrUser : 0), vaddr);
    case TranslateStatus::Protection:
      return raise(Trap::PageFault,
                   kPfErrPresent | (cpl_ == 3 ? kPfErrUser : 0), vaddr);
    case TranslateStatus::BadPhysical:
      return raise(Trap::PageFault, (cpl_ == 3 ? kPfErrUser : 0), vaddr);
  }

  if (size == 1) {
    value = memory_.read8(paddr);
    note_read(paddr, 1);
    return true;
  }
  if ((vaddr & kPageMask) <= kPageSize - 4) {
    value = memory_.read32(paddr);
    note_read(paddr, 4);
    return true;
  }
  // Page-crossing 32-bit read: the first page's frame is already in
  // hand, so only the second page needs a translate — one fill per
  // page, the same TLB history the old per-byte fallback produced.
  // The fault point matches it exactly too: the first byte of the
  // second page, with the per-status error code below.
  const std::uint32_t first = kPageSize - (vaddr & kPageMask);  // 1..3
  const std::uint32_t vaddr2 = vaddr + first;
  std::uint32_t paddr2 = 0;
  switch (mmu_.translate(vaddr2, Access::Read, cpl_, paddr2)) {
    case TranslateStatus::Ok:
      break;
    case TranslateStatus::Mmio:
      // The second page's bytes would be sub-word MMIO accesses, which
      // always fault.
      return raise(Trap::GpFault, 0, vaddr2);
    case TranslateStatus::NotPresent:
    case TranslateStatus::BadPhysical:
      return raise(Trap::PageFault, (cpl_ == 3 ? kPfErrUser : 0), vaddr2);
    case TranslateStatus::Protection:
      return raise(Trap::PageFault,
                   kPfErrPresent | (cpl_ == 3 ? kPfErrUser : 0), vaddr2);
  }
  value = 0;
  for (std::uint32_t i = 0; i < first; ++i) {
    value |= static_cast<std::uint32_t>(memory_.read8(paddr + i)) << (8 * i);
  }
  for (std::uint32_t i = first; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(memory_.read8(paddr2 + (i - first)))
             << (8 * i);
  }
  note_read(paddr, first);
  note_read(paddr2, 4 - first);
  return true;
}

bool Cpu::write_v_slow(std::uint32_t vaddr, std::uint32_t size,
                       std::uint32_t value) {
  std::uint32_t paddr = 0;
  const TranslateStatus status =
      mmu_.translate(vaddr, Access::Write, cpl_, paddr);
  switch (status) {
    case TranslateStatus::Ok:
      break;
    case TranslateStatus::Mmio: {
      if (size != 4 || (vaddr & 3) != 0) {
        return raise(Trap::GpFault, 0, vaddr);
      }
      if (!bus_.write32(vaddr, value)) return raise(Trap::GpFault, 0, vaddr);
      return true;
    }
    case TranslateStatus::NotPresent:
      return raise(Trap::PageFault,
                   kPfErrWrite | (cpl_ == 3 ? kPfErrUser : 0), vaddr);
    case TranslateStatus::Protection:
      return raise(Trap::PageFault,
                   kPfErrPresent | kPfErrWrite | (cpl_ == 3 ? kPfErrUser : 0),
                   vaddr);
    case TranslateStatus::BadPhysical:
      return raise(Trap::PageFault,
                   kPfErrWrite | (cpl_ == 3 ? kPfErrUser : 0), vaddr);
  }

  if (size == 1) {
    note_write(paddr, 1);
    memory_.write8(paddr, static_cast<std::uint8_t>(value));
    return true;
  }
  if ((vaddr & kPageMask) <= kPageSize - 4) {
    note_write(paddr, 4);
    memory_.write32(paddr, value);
    return true;
  }
  // Page-crossing 32-bit write: one translate per page instead of one
  // per byte.  The first page's bytes commit BEFORE the second page is
  // probed — a fault there leaves the same partial write (and the same
  // per-byte version bumps) the old per-byte fallback produced.
  const std::uint32_t first = kPageSize - (vaddr & kPageMask);  // 1..3
  const std::uint32_t vaddr2 = vaddr + first;
  note_write(paddr, first);
  for (std::uint32_t i = 0; i < first; ++i) {
    memory_.write8(paddr + i, static_cast<std::uint8_t>(value >> (8 * i)));
  }
  std::uint32_t paddr2 = 0;
  switch (mmu_.translate(vaddr2, Access::Write, cpl_, paddr2)) {
    case TranslateStatus::Ok:
      break;
    case TranslateStatus::Mmio:
      return raise(Trap::GpFault, 0, vaddr2);
    case TranslateStatus::NotPresent:
    case TranslateStatus::BadPhysical:
      return raise(Trap::PageFault,
                   kPfErrWrite | (cpl_ == 3 ? kPfErrUser : 0), vaddr2);
    case TranslateStatus::Protection:
      return raise(Trap::PageFault,
                   kPfErrPresent | kPfErrWrite | (cpl_ == 3 ? kPfErrUser : 0),
                   vaddr2);
  }
  note_write(paddr2, 4 - first);
  for (std::uint32_t i = first; i < 4; ++i) {
    memory_.write8(paddr2 + (i - first),
                   static_cast<std::uint8_t>(value >> (8 * i)));
  }
  return true;
}

bool Cpu::push32(std::uint32_t value) {
  const std::uint32_t esp = regs_[static_cast<int>(Reg::Esp)] - 4;
  if (!write_v(esp, 4, value)) return false;
  regs_[static_cast<int>(Reg::Esp)] = esp;
  return true;
}

bool Cpu::pop32(std::uint32_t& value) {
  const std::uint32_t esp = regs_[static_cast<int>(Reg::Esp)];
  if (!read_v(esp, 4, value)) return false;
  regs_[static_cast<int>(Reg::Esp)] = esp + 4;
  return true;
}

bool Cpu::peek32(std::uint32_t vaddr, std::uint32_t& value) {
  std::uint32_t paddr = 0;
  if (mmu_.translate(vaddr, Access::Read, 0, paddr) != TranslateStatus::Ok) {
    return false;
  }
  if ((vaddr & kPageMask) > kPageSize - 4) return false;
  value = memory_.read32(paddr);
  return true;
}

bool Cpu::peek8(std::uint32_t vaddr, std::uint8_t& value) {
  std::uint32_t paddr = 0;
  if (mmu_.translate(vaddr, Access::Read, 0, paddr) != TranslateStatus::Ok) {
    return false;
  }
  value = memory_.read8(paddr);
  return true;
}

// ---------------------------------------------------------------------
// Operand helpers
// ---------------------------------------------------------------------

bool Cpu::read_operand_slow(const Operand& op, std::uint32_t& value) {
  switch (op.kind) {
    case OperandKind::Reg8:
      value = regs_[static_cast<int>(op.reg)] & 0xFF;
      return true;
    case OperandKind::Mem8: {
      std::uint32_t addr = 0;
      operand_addr(op, addr);
      if (!read_v(addr, 1, value)) return false;
      value &= 0xFF;
      return true;
    }
    default:  // None (Reg, Imm and Mem are resolved inline)
      value = 0;
      return true;
  }
}

bool Cpu::write_operand_slow(const Operand& op, std::uint32_t value) {
  switch (op.kind) {
    case OperandKind::Reg8: {
      std::uint32_t& r = regs_[static_cast<int>(op.reg)];
      r = (r & 0xFFFFFF00u) | (value & 0xFF);
      return true;
    }
    case OperandKind::Mem8: {
      std::uint32_t addr = 0;
      operand_addr(op, addr);
      return write_v(addr, 1, value & 0xFF);
    }
    default:
      return true;
  }
}

void Cpu::set_logic_flags32(std::uint32_t result) {
  flags_.cf = false;
  flags_.of = false;
  flags_.zf = result == 0;
  flags_.sf = (result >> 31) != 0;
  flags_.pf = parity_even(static_cast<std::uint8_t>(result));
}

void Cpu::set_logic_flags8(std::uint8_t result) {
  flags_.cf = false;
  flags_.of = false;
  flags_.zf = result == 0;
  flags_.sf = (result & 0x80) != 0;
  flags_.pf = parity_even(result);
}

// ---------------------------------------------------------------------
// Step
// ---------------------------------------------------------------------

CpuEvent Cpu::step() {
  CpuEvent event;
  if (dead_) {
    event.kind = CpuEventKind::DoubleFault;
    return event;
  }
  if (halted_) {
    event.kind = CpuEventKind::Halted;
    return event;
  }

  // Debug-register match on the instruction address (the injection
  // trigger).  resume_flag suppresses an immediate re-trigger so the
  // host can resume execution of the very instruction it intercepted.
  if (!resume_flag_) {
    for (int i = 0; i < 4; ++i) {
      if (debug_[i].enabled && debug_[i].addr == eip_) {
        resume_flag_ = true;
        event.kind = CpuEventKind::Breakpoint;
        event.breakpoint_index = i;
        return event;
      }
    }
  }
  resume_flag_ = false;
  if (observer_ != nullptr) observer_->executes(eip_, cycles_);

  // --- Fetch ---
  std::uint8_t buf[isa::kMaxInstructionLength];
  std::size_t fetched = 0;
  std::uint32_t fault_vaddr = 0;
  // Where the fetched bytes came from: `head` bytes at head_paddr, the
  // rest (a cross-page tail) at tail_paddr.
  std::uint32_t head_paddr = 0;
  std::uint32_t tail_paddr = 0;
  std::uint32_t head = 0;
  {
    std::uint32_t paddr = 0;
    const TranslateStatus status =
        mmu_.translate(eip_, Access::Execute, cpl_, paddr);
    if (status == TranslateStatus::Ok) {
      // Decode-cache hit: skip fetch + decode entirely.
      DecodedSlot& slot =
          decode_cache_[(paddr ^ (paddr >> 14)) & (kDecodeCacheSize - 1)];
      if (slot.paddr == paddr &&
          slot.version == memory_.page_version(paddr)) {
        ++decode_hits_;
        cycles_ += 1;
        // The instruction's bytes execute without being re-read.
        note_read(paddr, slot.instr.length);
        const bool cached_trap = !execute(slot.instr);
        if (cached_trap) {
          event.trap_taken = true;
          event.trap = last_trap_.trap;
        }
        if (dead_) {
          event.kind = CpuEventKind::DoubleFault;
        } else if (halted_) {
          event.kind = CpuEventKind::Halted;
        }
        return event;
      }
      const std::uint32_t room = kPageSize - (eip_ & kPageMask);
      const std::uint32_t take =
          room < isa::kMaxInstructionLength ? room
                                            : isa::kMaxInstructionLength;
      memory_.read_block(paddr, buf, take);
      fetched = take;
      head_paddr = paddr;
      head = take;
      // Cross-page tail.  Looked up with peek (no TLB fill): a fill
      // here would depend on decode-cache hit history — misses near a
      // page end would warm the next page's TLB slot while hits would
      // not — making TLB evolution cache-state-dependent and
      // irreproducible by the block engine.
      if (fetched < isa::kMaxInstructionLength) {
        std::uint32_t paddr2 = 0;
        const TranslateStatus s2 =
            mmu_.peek(eip_ + fetched, Access::Execute, cpl_, paddr2);
        if (s2 == TranslateStatus::Ok) {
          tail_paddr = paddr2;
          memory_.read_block(paddr2, buf + fetched,
                             isa::kMaxInstructionLength -
                                 static_cast<std::uint32_t>(fetched));
          fetched = isa::kMaxInstructionLength;
        } else {
          fault_vaddr = eip_ + static_cast<std::uint32_t>(fetched);
        }
      }
    } else if (status == TranslateStatus::Mmio) {
      cycles_ += 1;
      raise(Trap::GpFault, 0, eip_);
      event.trap_taken = true;
      event.trap = last_trap_.trap;
      if (dead_) event.kind = CpuEventKind::DoubleFault;
      return event;
    } else {
      cycles_ += 1;
      const std::uint32_t err =
          (status == TranslateStatus::Protection ? kPfErrPresent : 0) |
          (cpl_ == 3 ? kPfErrUser : 0);
      raise(Trap::PageFault, err, eip_);
      event.trap_taken = true;
      event.trap = last_trap_.trap;
      if (dead_) event.kind = CpuEventKind::DoubleFault;
      return event;
    }
  }

  Instruction instr;
  const DecodeStatus status = isa::decode(buf, fetched, instr);
  ++decode_misses_;
  cycles_ += 1;
  if (liveness_ != nullptr) {
    // A decoded instruction consumed its own bytes; a failed decode
    // counts everything fetched.
    const std::uint32_t used = status == DecodeStatus::Ok
                                   ? instr.length
                                   : static_cast<std::uint32_t>(fetched);
    note_read(head_paddr, used < head ? used : head);
    if (used > head) note_read(tail_paddr, used - head);
    // The peeked tail page's translation decided the decode only when
    // the instruction did not fit the head bytes: block construction,
    // which never decodes past a page, reports no such walk either.
    if (head < isa::kMaxInstructionLength &&
        (status != DecodeStatus::Ok || instr.length > head)) {
      mmu_.note_peek(eip_ + head);
    }
  }

  if (status == DecodeStatus::Ok) {
    std::uint32_t paddr = 0;
    if (mmu_.translate(eip_, Access::Execute, cpl_, paddr) ==
            TranslateStatus::Ok &&
        (paddr & kPageMask) + instr.length <= kPageSize) {
      DecodedSlot& slot =
          decode_cache_[(paddr ^ (paddr >> 14)) & (kDecodeCacheSize - 1)];
      slot.paddr = paddr;
      slot.version = memory_.page_version(paddr);
      slot.instr = instr;
    }
  }

  if (status == DecodeStatus::Truncated) {
    // The instruction ran off the end of a mapped region.
    raise(Trap::PageFault, (cpl_ == 3 ? kPfErrUser : 0),
          fault_vaddr != 0 ? fault_vaddr : eip_ + static_cast<std::uint32_t>(fetched));
    event.trap_taken = true;
    event.trap = last_trap_.trap;
    if (dead_) event.kind = CpuEventKind::DoubleFault;
    return event;
  }
  if (status == DecodeStatus::Invalid) {
    raise(Trap::InvalidOpcode, 0, eip_);
    event.trap_taken = true;
    event.trap = last_trap_.trap;
    if (dead_) event.kind = CpuEventKind::DoubleFault;
    return event;
  }

  const bool trapped = !execute(instr);
  if (trapped) {
    event.trap_taken = true;
    event.trap = last_trap_.trap;
  }
  if (dead_) {
    event.kind = CpuEventKind::DoubleFault;
  } else if (halted_) {
    event.kind = CpuEventKind::Halted;
  }
  return event;
}

// ---------------------------------------------------------------------
// Superblock engine
// ---------------------------------------------------------------------

namespace {

// An instruction ends a block when it cannot deterministically fall
// through to eip+length: control transfers, software traps, privileged
// ops that always fault, and hlt.  Anything else that traps at runtime
// (a #PF on a memory operand, #GP from user mode) ends the block
// dynamically via execute() returning false.
bool block_terminator(const Instruction& in) {
  if (in.is_branch()) return true;
  switch (in.op) {
    case Op::Int:
    case Op::Int3:
    case Op::Ud2:
    case Op::Invalid:
    case Op::Hlt:
    case Op::FarJmp:
    case Op::FarCall:
    case Op::MovSeg:
      return true;
    case Op::Sti:
      // A timer tick that went pending while interrupts were off is
      // delivered at the first loop top with IF set; ending the block
      // at sti puts that loop top exactly where the stepper has it.
      return true;
    default:
      return false;
  }
}

// Whether executing `in` may write guest memory or MMIO, or halt: the
// only ways a trace op can move a code-page version, set the host's
// stop latch or set halted_ (dead_ needs a failing handler, which ends
// the trace anyway).  Conservative by construction: only the
// whitelisted ops with a register destination are store-free, so every
// Mem/Mem8 destination, push, call, int and hlt counts as a store.
bool may_store(const Instruction& in) {
  if (in.dst.kind == OperandKind::Mem || in.dst.kind == OperandKind::Mem8) {
    return true;
  }
  switch (in.op) {
    case Op::Add:
    case Op::Or:
    case Op::And:
    case Op::Sub:
    case Op::Xor:
    case Op::Cmp:
    case Op::Test:
    case Op::Mov:
    case Op::Lea:
    case Op::Movzx8:
    case Op::Imul:
    case Op::Pop:
    case Op::Inc:
    case Op::Dec:
    case Op::Not:
    case Op::Neg:
    case Op::Mul:
    case Op::Div:
    case Op::Idiv:
    case Op::Shl:
    case Op::Shr:
    case Op::Sar:
    case Op::Jcc:
    case Op::Setcc:
    case Op::Jmp:
    case Op::JmpInd:
    case Op::Ret:
    case Op::Leave:
    case Op::Nop:
    case Op::Cdq:
    case Op::In:
    case Op::Cli:
    case Op::Sti:
      return false;
    default:
      return true;
  }
}

}  // namespace

bool Cpu::build_block(std::uint32_t entry_paddr, Block& blk) {
  blk.entry_paddr = kNoBlock;
  blk.entry_vaddr = eip_;
  blk.links[0] = ChainLink{};
  blk.links[1] = ChainLink{};
  blk.ops.clear();

  std::uint32_t vaddr = eip_;
  std::uint32_t paddr = entry_paddr;
  std::uint32_t vmin = eip_;
  std::uint32_t vmax = eip_;
  while (blk.ops.size() < kMaxTraceOps) {
    // Decode only from bytes within the instruction's page: an
    // instruction whose fetch identity spans two pages cannot be
    // verified with one translation, so it is left to the stepper.
    const std::uint32_t room = kPageSize - (paddr & kPageMask);
    const std::uint32_t take =
        room < isa::kMaxInstructionLength
            ? room
            : static_cast<std::uint32_t>(isa::kMaxInstructionLength);
    std::uint8_t buf[isa::kMaxInstructionLength];
    memory_.read_block(paddr, buf, take);
    Instruction instr;
    if (isa::decode(buf, take, instr) != DecodeStatus::Ok) break;

    MicroOp uop;
    uop.fn = select_handler(instr);
    uop.vaddr = vaddr;
    uop.paddr = paddr;
    uop.version = memory_.page_version(paddr);
    uop.same_page = !blk.ops.empty() &&
                    (blk.ops.back().vaddr >> 12) == (vaddr >> 12) &&
                    (blk.ops.back().paddr >> 12) == (paddr >> 12);
    uop.may_store = may_store(instr);
    uop.instr = instr;
    blk.ops.push_back(uop);
    if (vaddr < vmin) vmin = vaddr;
    const std::uint32_t last_byte = vaddr + instr.length - 1;
    if (last_byte > vmax) vmax = last_byte;

    if (block_terminator(instr)) {
      // Trace widening: direct jmp/call have statically known targets
      // (next + rel), so the decode can continue there.  The branch op
      // itself stays in the trace and executes normally — widening
      // changes predecode layout only, never execution.  Everything
      // else (conditional, indirect, IF-changing, trapping) ends the
      // trace; chaining handles those transitions at runtime.
      if (blk.ops.size() >= kMaxTraceOps ||
          (instr.op != Op::Jmp && instr.op != Op::Call)) {
        break;
      }
      vaddr = vaddr + instr.length + static_cast<std::uint32_t>(instr.rel);
    } else {
      vaddr += instr.length;
    }
    if (mmu_.peek(vaddr, Access::Execute, cpl_, paddr) !=
        TranslateStatus::Ok) {
      break;
    }
  }
  if (blk.ops.empty()) return false;
  for (std::size_t i = 0; i < blk.ops.size();) {
    MicroOp& head = blk.ops[i];
    head.fused = select_fused(&head, blk.ops.size() - i, head.fused_len);
    i += head.fused_len != 0 ? head.fused_len : 1;
  }
  blk.entry_paddr = entry_paddr;
  blk.vmin = vmin;
  blk.vmax = vmax;
  trace_len_ += blk.ops.size();
  return true;
}

Cpu::Block* Cpu::lookup_block(std::uint32_t paddr) {
  Block& blk = block_cache_[block_index(paddr)];
  if (blk.entry_paddr != paddr || blk.entry_vaddr != eip_ ||
      blk.ops.empty() ||
      blk.ops[0].version != memory_.page_version(paddr)) {
    if (!build_block(paddr, blk)) return nullptr;
    ++blocks_built_;
  } else {
    ++block_hits_;
  }
  return &blk;
}

bool Cpu::breakpoints_clear(const Block& blk) const {
  for (const DebugReg& dr : debug_) {
    if (!dr.enabled) continue;
    if (dr.addr < blk.vmin || dr.addr > blk.vmax) continue;
    // In range: refuse only if it names an instruction start — the
    // stepper's trigger compares against eip_, never interior bytes.
    for (const MicroOp& op : blk.ops) {
      if (op.vaddr == dr.addr) return false;
    }
  }
  return true;
}

std::size_t Cpu::run_block(std::uint64_t max_instructions, const bool* stop,
                           CpuEvent& event) {
  if (observer_ == nullptr && liveness_ == nullptr) {
    return dispatch<false>(max_instructions, stop, event);
  }
  return dispatch<true>(max_instructions, stop, event);
}

template <bool kRecord>
std::size_t Cpu::dispatch(std::uint64_t max_instructions, const bool* stop,
                          CpuEvent& event) {
  event = CpuEvent{};
  if (dead_ || halted_ || max_instructions == 0) return 0;

  std::uint32_t entry_paddr = 0;
  if (mmu_.translate(eip_, Access::Execute, cpl_, entry_paddr) !=
      TranslateStatus::Ok) {
    // Fetch fault or MMIO fetch: the stepper raises the exact trap.
    ++block_fallbacks_;
    return 0;
  }

  Block* blk = lookup_block(entry_paddr);
  if (blk == nullptr || !breakpoints_clear(*blk)) {
    // Undecodable entry, or an armed debug register names an
    // instruction in the block: single-step so the Breakpoint event
    // surfaces at the exact instruction.
    ++block_fallbacks_;
    return 0;
  }

  // Per-dispatch inline translate cache.  A translate_fast call is
  // skipped only when it is provably a TLB hit: the page was verified
  // present at `cached_epoch` and no TLB mutation (fill, flush, cr3
  // load) has happened since, so the skipped call could neither fail
  // differently nor change TLB state the stepper would have.  Inside a
  // trace the cached page is always the previous op's, so a same_page
  // op only has to compare the epoch.
  std::uint32_t cached_vpn = eip_ >> 12;
  std::uint32_t cached_frame = entry_paddr & ~kPageMask;
  std::uint64_t cached_epoch = mmu_.epoch();

  std::size_t total = 0;
  for (;;) {
    // With no breakpoint at any op, the resume flag's only effect in
    // the stepper is being consumed by the next fetch; consume it.
    resume_flag_ = false;

    const std::uint64_t remaining = max_instructions - total;
    const std::size_t limit =
        blk->ops.size() < remaining ? blk->ops.size()
                                    : static_cast<std::size_t>(remaining);
    std::size_t executed = 0;
    bool broke = false;
    // Set after a may_store op.  Op 0 needs no flag: it is never
    // same_page, so its version is checked like any page change.
    bool check_version = false;
    while (executed < limit) {
      const MicroOp& op = blk->ops[executed];
      if (executed != 0 && (!op.same_page || mmu_.epoch() != cached_epoch)) {
        // Re-verify the fetch translation where the stepper's fetch
        // could differ from the cached frame: a new page, or any TLB
        // mutation since the last verified hit.  Same call, same TLB
        // fills, same result.
        std::uint32_t paddr = 0;
        if (mmu_.translate_fast(eip_, Access::Execute, cpl_, paddr) !=
                TranslateStatus::Ok ||
            paddr != op.paddr) {
          broke = true;
          break;
        }
        cached_vpn = eip_ >> 12;
        cached_frame = paddr & ~kPageMask;
        cached_epoch = mmu_.epoch();
      }
      if ((check_version || !op.same_page) &&
          memory_.page_version(op.paddr) != op.version) {
        // Self-modified (or flipped) code page: drop the block and let
        // the stepper re-decode this instruction.
        blk->entry_paddr = kNoBlock;
        ++block_invalidations_;
        broke = true;
        break;
      }
      if constexpr (kRecord) {
        // What step() reports for this instruction: its start and its
        // fetched bytes (a trace op never straddles a page).
        if (observer_ != nullptr) observer_->executes(op.vaddr, cycles_);
        note_read(op.paddr, op.instr.length);
      } else if (op.fused_len != 0) {
        if (op.fused_len <= limit - executed &&
            (stop == nullptr || !*stop) && op.fused(*this, &op)) {
          // The group's last op never stores, and its push provably
          // missed the group's code page (see MicroOp).
          cycles_ += op.fused_len;
          executed += op.fused_len;
          ++fused_groups_;
          check_version = false;
          continue;
        }
        ++fused_declines_;
      }
      cycles_ += 1;
      ++executed;
      if (!op.fn(*this, op.instr)) {
        event.trap_taken = true;
        event.trap = last_trap_.trap;
        broke = true;
        break;
      }
      check_version = op.may_store;
      if (op.may_store &&
          (halted_ || dead_ || (stop != nullptr && *stop))) {
        broke = true;
        break;
      }
    }
    block_ops_ += executed;
    total += executed;
    if (broke || executed < blk->ops.size() || total >= max_instructions) {
      break;
    }

    // The block ran to completion below budget.  Chain to the
    // successor unless the terminator can enable interrupts: sti and
    // iret may unmask a pending tick, whose delivery loop top must
    // land exactly here (the PR 3 invariant).
    const Op term = blk->ops.back().instr.op;
    if (term == Op::Sti || term == Op::Iret) break;

    // Successor entry translation — the same filling translate the
    // stepper's fetch would do, unless provably already a hit.
    const std::uint32_t next_vpn = eip_ >> 12;
    std::uint32_t next_paddr = 0;
    if (next_vpn == cached_vpn && mmu_.epoch() == cached_epoch) {
      next_paddr = cached_frame | (eip_ & kPageMask);
    } else if (mmu_.translate(eip_, Access::Execute, cpl_, next_paddr) ==
               TranslateStatus::Ok) {
      cached_vpn = next_vpn;
      cached_frame = next_paddr & ~kPageMask;
      cached_epoch = mmu_.epoch();
    } else {
      // Fetch fault at the target: the stepper raises the exact trap.
      break;
    }

    // Link slot: fall-through of a conditional gets its own slot so a
    // hot jcc caches both edges; everything else (taken edge, computed
    // ret/indirect targets, op-capped fall-through) shares slot 0 as a
    // monomorphic cache keyed on the observed target vaddr.
    const MicroOp& last = blk->ops.back();
    const int slot = (last.instr.op == Op::Jcc &&
                      eip_ == last.vaddr + last.instr.length)
                         ? 1
                         : 0;
    ChainLink& link = blk->links[slot];

    Block* next = nullptr;
    if (link.index != kNoBlock) {
      Block& cand = block_cache_[link.index];
      if (link.vaddr == eip_ && cand.entry_paddr == next_paddr &&
          cand.entry_vaddr == eip_ && !cand.ops.empty() &&
          cand.ops[0].version == memory_.page_version(next_paddr)) {
        next = &cand;
        ++block_hits_;
      } else {
        // Severed (invalidated target, reused slot, remapped page) or
        // retargeted link: fall back to a probe and re-patch.
        ++chain_breaks_;
      }
    }
    if (next == nullptr) {
      next = lookup_block(next_paddr);
      if (next == nullptr) break;
      link.vaddr = eip_;
      link.index = block_index(next_paddr);
    }
    if (!breakpoints_clear(*next)) break;
    ++chain_follows_;
    blk = next;
  }

  if (dead_) {
    event.kind = CpuEventKind::DoubleFault;
  } else if (halted_) {
    event.kind = CpuEventKind::Halted;
  }
  return total;
}

void Cpu::invalidate_blocks(std::uint32_t paddr) {
  // Dropping a block also severs every chain through it: inbound links
  // fail their entry_paddr validation on the next follow, and outbound
  // links die with the block (rebuilds start with empty link slots).
  const std::uint32_t page = paddr >> 12;
  std::uint32_t dropped = 0;
  for (Block& blk : block_cache_) {
    if (blk.entry_paddr == kNoBlock) continue;
    for (const MicroOp& op : blk.ops) {
      if ((op.paddr >> 12) == page) {
        blk.entry_paddr = kNoBlock;
        blk.links[0] = ChainLink{};
        blk.links[1] = ChainLink{};
        ++block_invalidations_;
        ++dropped;
        break;
      }
    }
  }
  if (trace_sink_ != nullptr) {
    trace_sink_->record(trace::EventKind::BlockInvalidate, cycles_, paddr,
                        dropped);
  }
}

// ---------------------------------------------------------------------
// Opcode handlers
// ---------------------------------------------------------------------
//
// One generic static handler per opcode (kHandlers; all step() ever
// runs), plus operand-form specializations of the hottest ones that
// trace micro-ops run instead (select).  A handler returns false when
// it raised a trap (eip_ already redirected).

struct OpHandlers {
  // ----- data movement -----
  static bool mov(Cpu& c, const Instruction& in) {
    std::uint32_t value = 0;
    if (!c.read_operand(in.src, value)) return false;
    if (!c.write_operand(in.dst, value)) return false;
    c.eip_ += in.length;
    return true;
  }
  static bool lea(Cpu& c, const Instruction& in) {
    std::uint32_t addr = 0;
    c.operand_addr(in.src, addr);
    if (!c.write_operand(in.dst, addr)) return false;
    c.eip_ += in.length;
    return true;
  }
  static bool movzx8(Cpu& c, const Instruction& in) {
    std::uint32_t value = 0;
    if (!c.read_operand(in.src, value)) return false;
    if (!c.write_operand(in.dst, value & 0xFF)) return false;
    c.eip_ += in.length;
    return true;
  }

  // ----- ALU -----
  // The 32-bit result and flags of a two-operand ALU op.
  template <Op O>
  static std::uint32_t alu32(Cpu& c, std::uint32_t a, std::uint32_t b) {
    std::uint32_t result = 0;
    if constexpr (O == Op::Add) {
      result = a + b;
      c.flags_.cf = result < a;
      c.flags_.of = (((a ^ result) & (b ^ result)) >> 31) != 0;
    } else if constexpr (O == Op::Sub || O == Op::Cmp) {
      result = a - b;
      c.flags_.cf = a < b;
      c.flags_.of = (((a ^ b) & (a ^ result)) >> 31) != 0;
    } else if constexpr (O == Op::Or) {
      result = a | b;
    } else if constexpr (O == Op::And || O == Op::Test) {
      result = a & b;
    } else {
      result = a ^ b;
    }
    if constexpr (O == Op::Or || O == Op::And || O == Op::Xor ||
                  O == Op::Test) {
      c.set_logic_flags32(result);
    } else {
      c.flags_.zf = result == 0;
      c.flags_.sf = (result >> 31) != 0;
      c.flags_.pf = parity_even(static_cast<std::uint8_t>(result));
    }
    return result;
  }

  template <Op O>
  static bool alu(Cpu& c, const Instruction& in) {
    static_assert(O == Op::Add || O == Op::Or || O == Op::And ||
                  O == Op::Sub || O == Op::Xor || O == Op::Cmp ||
                  O == Op::Test);
    const bool byte_op = in.dst.kind == OperandKind::Reg8 ||
                         in.dst.kind == OperandKind::Mem8;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    if (!c.read_operand(in.dst, a)) return false;
    if (!c.read_operand(in.src, b)) return false;

    std::uint32_t result = 0;
    if (byte_op) {
      const std::uint8_t a8 = static_cast<std::uint8_t>(a);
      const std::uint8_t b8 = static_cast<std::uint8_t>(b);
      std::uint8_t r8 = 0;
      if constexpr (O == Op::Add) {
        const unsigned wide = unsigned(a8) + unsigned(b8);
        r8 = static_cast<std::uint8_t>(wide);
        c.flags_.cf = wide > 0xFF;
        c.flags_.of = ((a8 ^ r8) & (b8 ^ r8) & 0x80) != 0;
      } else if constexpr (O == Op::Sub || O == Op::Cmp) {
        r8 = static_cast<std::uint8_t>(a8 - b8);
        c.flags_.cf = a8 < b8;
        c.flags_.of = ((a8 ^ b8) & (a8 ^ r8) & 0x80) != 0;
      } else if constexpr (O == Op::Or) {
        r8 = a8 | b8;
      } else if constexpr (O == Op::And || O == Op::Test) {
        r8 = a8 & b8;
      } else {
        r8 = a8 ^ b8;
      }
      if constexpr (O == Op::Or || O == Op::And || O == Op::Xor ||
                    O == Op::Test) {
        c.set_logic_flags8(r8);
      } else {
        c.flags_.zf = r8 == 0;
        c.flags_.sf = (r8 & 0x80) != 0;
        c.flags_.pf = parity_even(r8);
      }
      result = r8;
    } else {
      result = alu32<O>(c, a, b);
    }
    if constexpr (O != Op::Cmp && O != Op::Test) {
      if (!c.write_operand(in.dst, result)) return false;
    }
    c.eip_ += in.length;
    return true;
  }

  template <Op O>
  static bool inc_dec(Cpu& c, const Instruction& in) {
    static_assert(O == Op::Inc || O == Op::Dec);
    std::uint32_t a = 0;
    if (!c.read_operand(in.dst, a)) return false;
    const std::uint32_t result = O == Op::Inc ? a + 1 : a - 1;
    // CF unchanged (IA-32 semantics).
    if constexpr (O == Op::Inc) {
      c.flags_.of = result == 0x80000000u;
    } else {
      c.flags_.of = a == 0x80000000u;
    }
    c.flags_.zf = result == 0;
    c.flags_.sf = (result >> 31) != 0;
    c.flags_.pf = parity_even(static_cast<std::uint8_t>(result));
    if (!c.write_operand(in.dst, result)) return false;
    c.eip_ += in.length;
    return true;
  }

  static bool not_(Cpu& c, const Instruction& in) {
    std::uint32_t a = 0;
    if (!c.read_operand(in.dst, a)) return false;
    if (!c.write_operand(in.dst, ~a)) return false;  // no flags
    c.eip_ += in.length;
    return true;
  }

  static bool neg(Cpu& c, const Instruction& in) {
    std::uint32_t a = 0;
    if (!c.read_operand(in.dst, a)) return false;
    const std::uint32_t result = 0u - a;
    c.flags_.cf = a != 0;
    c.flags_.of = a == 0x80000000u;
    c.flags_.zf = result == 0;
    c.flags_.sf = (result >> 31) != 0;
    c.flags_.pf = parity_even(static_cast<std::uint8_t>(result));
    if (!c.write_operand(in.dst, result)) return false;
    c.eip_ += in.length;
    return true;
  }

  static bool mul(Cpu& c, const Instruction& in) {
    std::uint32_t src = 0;
    if (!c.read_operand(in.src, src)) return false;
    const std::uint64_t wide = static_cast<std::uint64_t>(c.regs_[0]) * src;
    c.regs_[0] = static_cast<std::uint32_t>(wide);
    c.regs_[static_cast<int>(Reg::Edx)] =
        static_cast<std::uint32_t>(wide >> 32);
    c.flags_.cf = c.flags_.of = c.regs_[static_cast<int>(Reg::Edx)] != 0;
    c.flags_.zf = c.regs_[0] == 0;
    c.flags_.sf = (c.regs_[0] >> 31) != 0;
    c.eip_ += in.length;
    return true;
  }

  static bool imul(Cpu& c, const Instruction& in) {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    if (!c.read_operand(in.dst, a)) return false;
    if (!c.read_operand(in.src, b)) return false;
    const std::int64_t wide =
        static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
        static_cast<std::int32_t>(b);
    const std::int32_t low = static_cast<std::int32_t>(wide);
    c.flags_.cf = c.flags_.of = wide != low;
    if (!c.write_operand(in.dst, static_cast<std::uint32_t>(low))) {
      return false;
    }
    c.eip_ += in.length;
    return true;
  }

  static bool div(Cpu& c, const Instruction& in) {
    std::uint32_t src = 0;
    if (!c.read_operand(in.src, src)) return false;
    if (src == 0) return c.raise(Trap::DivideError, 0, c.eip_);
    const std::uint64_t dividend =
        (static_cast<std::uint64_t>(c.regs_[static_cast<int>(Reg::Edx)])
         << 32) |
        c.regs_[0];
    const std::uint64_t q = dividend / src;
    if (q > 0xFFFFFFFFu) return c.raise(Trap::DivideError, 0, c.eip_);
    c.regs_[0] = static_cast<std::uint32_t>(q);
    c.regs_[static_cast<int>(Reg::Edx)] =
        static_cast<std::uint32_t>(dividend % src);
    c.eip_ += in.length;
    return true;
  }

  static bool idiv(Cpu& c, const Instruction& in) {
    std::uint32_t src = 0;
    if (!c.read_operand(in.src, src)) return false;
    if (src == 0) return c.raise(Trap::DivideError, 0, c.eip_);
    const std::int64_t dividend = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(c.regs_[static_cast<int>(Reg::Edx)])
         << 32) |
        c.regs_[0]);
    const std::int32_t divisor = static_cast<std::int32_t>(src);
    if (dividend == INT64_MIN && divisor == -1) {
      return c.raise(Trap::DivideError, 0, c.eip_);
    }
    const std::int64_t q = dividend / divisor;
    if (q > INT32_MAX || q < INT32_MIN) {
      return c.raise(Trap::DivideError, 0, c.eip_);
    }
    c.regs_[0] = static_cast<std::uint32_t>(static_cast<std::int32_t>(q));
    c.regs_[static_cast<int>(Reg::Edx)] =
        static_cast<std::uint32_t>(static_cast<std::int32_t>(dividend % divisor));
    c.eip_ += in.length;
    return true;
  }

  static bool cdq(Cpu& c, const Instruction& in) {
    c.regs_[static_cast<int>(Reg::Edx)] =
        (c.regs_[0] & 0x80000000u) ? 0xFFFFFFFFu : 0;
    c.eip_ += in.length;
    return true;
  }

  template <Op O>
  static bool shift(Cpu& c, const Instruction& in) {
    static_assert(O == Op::Shl || O == Op::Shr || O == Op::Sar);
    std::uint32_t a = 0;
    std::uint32_t count = 0;
    if (!c.read_operand(in.dst, a)) return false;
    if (!c.read_operand(in.src, count)) return false;
    count &= 31;
    if (count == 0) {  // no flag change either
      c.eip_ += in.length;
      return true;
    }
    std::uint32_t result = 0;
    if constexpr (O == Op::Shl) {
      result = a << count;
      c.flags_.cf = ((a >> (32 - count)) & 1) != 0;
      if (count == 1) c.flags_.of = ((result >> 31) != 0) != c.flags_.cf;
    } else if constexpr (O == Op::Shr) {
      result = a >> count;
      c.flags_.cf = ((a >> (count - 1)) & 1) != 0;
      if (count == 1) c.flags_.of = (a >> 31) != 0;
    } else {
      result =
          static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> count);
      c.flags_.cf = ((a >> (count - 1)) & 1) != 0;
      if (count == 1) c.flags_.of = false;
    }
    c.flags_.zf = result == 0;
    c.flags_.sf = (result >> 31) != 0;
    c.flags_.pf = parity_even(static_cast<std::uint8_t>(result));
    if (!c.write_operand(in.dst, result)) return false;
    c.eip_ += in.length;
    return true;
  }

  static bool setcc(Cpu& c, const Instruction& in) {
    const std::uint32_t value = cond_holds(in.cond, c.flags_) ? 1 : 0;
    if (!c.write_operand(in.dst, value)) return false;
    c.eip_ += in.length;
    return true;
  }

  // ----- stack -----
  static bool push(Cpu& c, const Instruction& in) {
    std::uint32_t value = 0;
    if (!c.read_operand(in.src, value)) return false;
    if (!c.push32(value)) return false;
    c.eip_ += in.length;
    return true;
  }
  static bool pop(Cpu& c, const Instruction& in) {
    std::uint32_t value = 0;
    if (!c.pop32(value)) return false;
    if (!c.write_operand(in.dst, value)) return false;
    c.eip_ += in.length;
    return true;
  }
  static bool leave(Cpu& c, const Instruction& in) {
    c.regs_[static_cast<int>(Reg::Esp)] = c.regs_[static_cast<int>(Reg::Ebp)];
    std::uint32_t value = 0;
    if (!c.pop32(value)) return false;
    c.regs_[static_cast<int>(Reg::Ebp)] = value;
    c.eip_ += in.length;
    return true;
  }

  // ----- control transfer -----
  static bool jcc(Cpu& c, const Instruction& in) {
    const std::uint32_t next = c.eip_ + in.length;
    c.eip_ = cond_holds(in.cond, c.flags_)
                 ? next + static_cast<std::uint32_t>(in.rel)
                 : next;
    return true;
  }
  static bool jmp(Cpu& c, const Instruction& in) {
    c.eip_ += in.length + static_cast<std::uint32_t>(in.rel);
    return true;
  }
  static bool jmp_ind(Cpu& c, const Instruction& in) {
    std::uint32_t target = 0;
    if (!c.read_operand(in.src, target)) return false;
    c.eip_ = target;
    return true;
  }
  static bool call(Cpu& c, const Instruction& in) {
    const std::uint32_t next = c.eip_ + in.length;
    if (!c.push32(next)) return false;
    c.eip_ = next + static_cast<std::uint32_t>(in.rel);
    return true;
  }
  static bool call_ind(Cpu& c, const Instruction& in) {
    const std::uint32_t next = c.eip_ + in.length;
    std::uint32_t target = 0;
    if (!c.read_operand(in.src, target)) return false;
    if (!c.push32(next)) return false;
    c.eip_ = target;
    return true;
  }
  static bool ret(Cpu& c, const Instruction& in) {
    (void)in;
    std::uint32_t target = 0;
    if (!c.pop32(target)) return false;
    c.eip_ = target;
    return true;
  }

  static bool nop(Cpu& c, const Instruction& in) {
    c.eip_ += in.length;
    return true;
  }

  // ----- traps and privileged operations -----
  static bool ud(Cpu& c, const Instruction& in) {
    (void)in;
    return c.raise(Trap::InvalidOpcode, 0, c.eip_);
  }
  static bool int3(Cpu& c, const Instruction& in) {
    c.eip_ += in.length;  // software traps push the next instruction
    c.deliver(Trap::Int3, 0, 0, 0);
    return false;
  }
  static bool int_n(Cpu& c, const Instruction& in) {
    const int vec = in.imm8;
    // Gate DPL check: user code may only raise the syscall gate and
    // the debug/breakpoint vectors.
    if (c.cpl_ == 3 && vec != 0x80 && vec != 3 && vec != 4) {
      return c.raise(Trap::GpFault, 0, c.eip_);
    }
    if (c.vectors_[vec] == 0) return c.raise(Trap::GpFault, 0, c.eip_);
    c.eip_ += in.length;
    c.deliver(static_cast<Trap>(vec), 0, 0, 0);
    return false;
  }
  static bool iret(Cpu& c, const Instruction& in) {
    (void)in;
    if (c.cpl_ != 0) return c.raise(Trap::GpFault, 0, c.eip_);
    const std::uint32_t esp = c.regs_[static_cast<int>(Reg::Esp)];
    std::uint32_t new_eip = 0;
    std::uint32_t new_eflags = 0;
    std::uint32_t new_esp = 0;
    std::uint32_t new_cpl = 0;
    if (!c.read_v(esp, 4, new_eip)) return false;
    if (!c.read_v(esp + 4, 4, new_eflags)) return false;
    if (!c.read_v(esp + 8, 4, new_esp)) return false;
    if (!c.read_v(esp + 12, 4, new_cpl)) return false;
    new_cpl &= 3;
    if (new_cpl != 0 && new_cpl != 3) {
      return c.raise(Trap::GpFault, 0, c.eip_);
    }
    if (new_cpl == 3) {
      c.regs_[static_cast<int>(Reg::Esp)] = new_esp;
    } else {
      c.regs_[static_cast<int>(Reg::Esp)] = esp + 24;
    }
    c.cpl_ = static_cast<int>(new_cpl);
    c.flags_ = Flags::from_word(new_eflags);
    c.eip_ = new_eip;
    if (c.trace_sink_ != nullptr) {
      c.trace_sink_->record(trace::EventKind::TrapExit, c.cycles_, new_eip,
                            new_cpl);
    }
    return true;
  }
  static bool far_op(Cpu& c, const Instruction& in) {
    (void)in;
    // No far segments / descriptors exist; a corrupted selector always
    // faults (Table 7 example 3).
    return c.raise(Trap::GpFault, 0, c.eip_);
  }
  static bool in_port(Cpu& c, const Instruction& in) {
    if (c.cpl_ != 0) return c.raise(Trap::GpFault, 0, c.eip_);
    c.regs_[0] = (c.regs_[0] & 0xFFFFFF00u);  // no legacy ports: reads 0
    c.eip_ += in.length;
    return true;
  }
  static bool hlt(Cpu& c, const Instruction& in) {
    if (c.cpl_ != 0) return c.raise(Trap::GpFault, 0, c.eip_);
    c.halted_ = true;
    c.eip_ += in.length;
    return true;
  }
  static bool cli(Cpu& c, const Instruction& in) {
    if (c.cpl_ != 0) return c.raise(Trap::GpFault, 0, c.eip_);
    c.flags_.intf = false;
    c.eip_ += in.length;
    return true;
  }
  static bool sti(Cpu& c, const Instruction& in) {
    if (c.cpl_ != 0) return c.raise(Trap::GpFault, 0, c.eip_);
    c.flags_.intf = true;
    c.eip_ += in.length;
    return true;
  }

  // Handler table, indexed by Op.
  static constexpr Cpu::HandlerFn kHandlers[isa::kOpCount] = {
      alu<Op::Add>,         // Add
      alu<Op::Or>,          // Or
      alu<Op::And>,         // And
      alu<Op::Sub>,         // Sub
      alu<Op::Xor>,         // Xor
      alu<Op::Cmp>,         // Cmp
      alu<Op::Test>,        // Test
      mov,                  // Mov
      lea,                  // Lea
      movzx8,               // Movzx8
      imul,                 // Imul
      push,                 // Push
      pop,                  // Pop
      inc_dec<Op::Inc>,     // Inc
      inc_dec<Op::Dec>,     // Dec
      not_,                 // Not
      neg,                  // Neg
      mul,                  // Mul
      div,                  // Div
      idiv,                 // Idiv
      shift<Op::Shl>,       // Shl
      shift<Op::Shr>,       // Shr
      shift<Op::Sar>,       // Sar
      jcc,                  // Jcc
      setcc,                // Setcc
      jmp,                  // Jmp
      jmp_ind,              // JmpInd
      call,                 // Call
      call_ind,             // CallInd
      ret,                  // Ret
      leave,                // Leave
      nop,                  // Nop
      cdq,                  // Cdq
      ud,                   // Ud2
      int3,                 // Int3
      int_n,                // Int
      iret,                 // Iret
      far_op,               // Lret
      far_op,               // FarJmp
      far_op,               // FarCall
      far_op,               // MovSeg
      in_port,              // In
      hlt,                  // Hlt
      cli,                  // Cli
      sti,                  // Sti
      ud,                   // Invalid
  };

  // ----- operand-form specializations -----
  //
  // Trace micro-ops only (select_handler).  Each is its generic
  // handler with the operand-kind switches resolved at build time:
  // same reads and writes in the same order, same traps.
  static std::uint32_t& reg(Cpu& c, const Operand& op) {
    return c.regs_[static_cast<int>(op.reg)];
  }
  static bool mov_rr(Cpu& c, const Instruction& in) {
    reg(c, in.dst) = reg(c, in.src);
    c.eip_ += in.length;
    return true;
  }
  static bool mov_ri(Cpu& c, const Instruction& in) {
    reg(c, in.dst) = static_cast<std::uint32_t>(in.src.imm);
    c.eip_ += in.length;
    return true;
  }
  static bool mov_rm(Cpu& c, const Instruction& in) {
    std::uint32_t addr = 0;
    c.operand_addr(in.src, addr);
    std::uint32_t value = 0;
    if (!c.read_v(addr, 4, value)) return false;
    reg(c, in.dst) = value;
    c.eip_ += in.length;
    return true;
  }
  static bool mov_mr(Cpu& c, const Instruction& in) {
    const std::uint32_t value = reg(c, in.src);
    std::uint32_t addr = 0;
    c.operand_addr(in.dst, addr);
    if (!c.write_v(addr, 4, value)) return false;
    c.eip_ += in.length;
    return true;
  }
  static bool movzx_rr8(Cpu& c, const Instruction& in) {
    reg(c, in.dst) = reg(c, in.src) & 0xFF;
    c.eip_ += in.length;
    return true;
  }
  template <Op O>
  static bool alu_rr(Cpu& c, const Instruction& in) {
    const std::uint32_t result = alu32<O>(c, reg(c, in.dst), reg(c, in.src));
    if constexpr (O != Op::Cmp && O != Op::Test) reg(c, in.dst) = result;
    c.eip_ += in.length;
    return true;
  }
  static bool setcc_r8(Cpu& c, const Instruction& in) {
    std::uint32_t& r = reg(c, in.dst);
    r = (r & 0xFFFFFF00u) | (cond_holds(in.cond, c.flags_) ? 1 : 0);
    c.eip_ += in.length;
    return true;
  }
  static bool push_r(Cpu& c, const Instruction& in) {
    if (!c.push32(reg(c, in.src))) return false;
    c.eip_ += in.length;
    return true;
  }
  static bool pop_r(Cpu& c, const Instruction& in) {
    std::uint32_t value = 0;
    if (!c.pop32(value)) return false;
    reg(c, in.dst) = value;
    c.eip_ += in.length;
    return true;
  }

  // ----- fused groups -----
  //
  // Trace micro-ops only (select_fused).  A group handler runs its ops
  // exactly as their handlers would one after the other, or declines
  // before any effect; run_block counts the cycles and block_ops.
  //
  // minic's binary-expression idiom (codegen.cc, gen_binary):
  //   push r1; mov r1 <- X; mov r2 <- r1; pop r1 [; A r1, r2]
  // with X an immediate, memory word or register, and r1, r2 never
  // esp.  The pop reads back the word the push stored, so the net
  // effect is: the stack slot below esp holds r1, r2 = X (read with
  // esp already lowered), r1 and esp unchanged, then the optional ALU
  // op.  Declines unless the push and a memory X are permitted
  // in-page TLB hits and the push misses the group's code page; the
  // pop's read of the pushed slot is then a hit too.
  template <OperandKind X, Op A>
  static bool binop(Cpu& c, const Cpu::MicroOp* ops) {
    std::uint32_t* const regs = c.regs_;
    const Instruction& load = ops[1].instr;
    const std::uint32_t slot = regs[static_cast<int>(Reg::Esp)] - 4;
    std::uint32_t slot_paddr = 0;
    if (!c.mmu_.probe(slot, Access::Write, c.cpl_, slot_paddr) ||
        (slot & kPageMask) > kPageSize - 4 ||
        (slot_paddr >> 12) == (ops[0].paddr >> 12)) {
      return false;
    }
    std::uint32_t x_paddr = 0;
    if constexpr (X == OperandKind::Mem) {
      std::uint32_t addr = static_cast<std::uint32_t>(load.src.mem.disp);
      if (load.src.mem.has_base) {
        addr += load.src.mem.base == Reg::Esp
                    ? slot
                    : regs[static_cast<int>(load.src.mem.base)];
      }
      if (!c.mmu_.probe(addr, Access::Read, c.cpl_, x_paddr) ||
          (addr & kPageMask) > kPageSize - 4) {
        return false;
      }
    }
    const int r1 = static_cast<int>(ops[0].instr.src.reg);
    const std::uint32_t v1 = regs[r1];
    c.memory_.write32(slot_paddr, v1);
    std::uint32_t x = 0;
    if constexpr (X == OperandKind::Imm) {
      x = static_cast<std::uint32_t>(load.src.imm);
    } else if constexpr (X == OperandKind::Reg) {
      x = load.src.reg == Reg::Esp ? slot
                                   : regs[static_cast<int>(load.src.reg)];
    } else {
      x = c.memory_.read32(x_paddr);  // after the push: it may overlap
    }
    const int r2 = static_cast<int>(ops[2].instr.dst.reg);
    regs[r2] = x;
    regs[r1] = v1;  // the pop, also when r2 == r1
    const Cpu::MicroOp* last = ops + 3;
    if constexpr (A != Op::Nop) {
      const std::uint32_t result = alu32<A>(c, regs[r1], regs[r2]);
      if constexpr (A != Op::Cmp) regs[r1] = result;
      last = ops + 4;
    }
    c.eip_ = last->vaddr + last->instr.length;
    return true;
  }

  template <OperandKind X>
  static Cpu::FusedFn binop_for(Op alu) {
    switch (alu) {
      case Op::Add: return binop<X, Op::Add>;
      case Op::Sub: return binop<X, Op::Sub>;
      case Op::And: return binop<X, Op::And>;
      case Op::Cmp: return binop<X, Op::Cmp>;
      default: return binop<X, Op::Nop>;
    }
  }

  // The binop group at ops[0], or nullptr.  Every op after the push
  // must share its code page, so the push's fetch check covers them.
  static Cpu::FusedFn select_fused(const Cpu::MicroOp* ops, std::size_t n,
                                   std::uint8_t& len) {
    len = 0;
    if (n < 4) return nullptr;
    const Instruction& push = ops[0].instr;
    const Instruction& load = ops[1].instr;
    const Instruction& copy = ops[2].instr;
    const Instruction& pop = ops[3].instr;
    const Reg r1 = push.src.reg;
    const OperandKind x = load.src.kind;
    if (push.op != Op::Push || push.src.kind != OperandKind::Reg ||
        r1 == Reg::Esp || load.op != Op::Mov ||
        load.dst.kind != OperandKind::Reg || load.dst.reg != r1 ||
        (x != OperandKind::Imm && x != OperandKind::Mem &&
         x != OperandKind::Reg) ||
        copy.op != Op::Mov || copy.dst.kind != OperandKind::Reg ||
        copy.src.kind != OperandKind::Reg || copy.src.reg != r1 ||
        copy.dst.reg == Reg::Esp || pop.op != Op::Pop ||
        pop.dst.kind != OperandKind::Reg || pop.dst.reg != r1 ||
        !ops[1].same_page || !ops[2].same_page || !ops[3].same_page) {
      return nullptr;
    }
    Op alu = Op::Nop;
    if (n >= 5 && ops[4].same_page) {
      const Instruction& tail = ops[4].instr;
      if ((tail.op == Op::Add || tail.op == Op::Sub || tail.op == Op::And ||
           tail.op == Op::Cmp) &&
          tail.dst.kind == OperandKind::Reg && tail.dst.reg == r1 &&
          tail.src.kind == OperandKind::Reg && tail.src.reg == copy.dst.reg) {
        alu = tail.op;
      }
    }
    len = alu == Op::Nop ? 4 : 5;
    if (x == OperandKind::Imm) return binop_for<OperandKind::Imm>(alu);
    if (x == OperandKind::Mem) return binop_for<OperandKind::Mem>(alu);
    return binop_for<OperandKind::Reg>(alu);
  }

  static Cpu::HandlerFn select(const Instruction& in) {
    const OperandKind d = in.dst.kind;
    const OperandKind s = in.src.kind;
    const bool rr = d == OperandKind::Reg && s == OperandKind::Reg;
    switch (in.op) {
      case Op::Mov:
        if (rr) return mov_rr;
        if (d == OperandKind::Reg && s == OperandKind::Imm) return mov_ri;
        if (d == OperandKind::Reg && s == OperandKind::Mem) return mov_rm;
        if (d == OperandKind::Mem && s == OperandKind::Reg) return mov_mr;
        break;
      case Op::Add:
        if (rr) return alu_rr<Op::Add>;
        break;
      case Op::And:
        if (rr) return alu_rr<Op::And>;
        break;
      case Op::Sub:
        if (rr) return alu_rr<Op::Sub>;
        break;
      case Op::Cmp:
        if (rr) return alu_rr<Op::Cmp>;
        break;
      case Op::Test:
        if (rr) return alu_rr<Op::Test>;
        break;
      case Op::Movzx8:
        if (d == OperandKind::Reg && s == OperandKind::Reg8) return movzx_rr8;
        break;
      case Op::Setcc:
        if (d == OperandKind::Reg8) return setcc_r8;
        break;
      case Op::Push:
        if (s == OperandKind::Reg) return push_r;
        break;
      case Op::Pop:
        if (d == OperandKind::Reg) return pop_r;
        break;
      default:
        break;
    }
    return kHandlers[static_cast<int>(in.op)];
  }
};

Cpu::HandlerFn Cpu::generic_handler(Op op) {
  return OpHandlers::kHandlers[static_cast<int>(op)];
}

Cpu::HandlerFn Cpu::select_handler(const Instruction& in) {
  return OpHandlers::select(in);
}

Cpu::FusedFn Cpu::select_fused(const MicroOp* ops, std::size_t n,
                               std::uint8_t& len) {
  return OpHandlers::select_fused(ops, n, len);
}

// Returns false when a trap was raised (eip already redirected).
bool Cpu::execute(const Instruction& in) {
  return generic_handler(in.op)(*this, in);
}

}  // namespace kfi::vm
