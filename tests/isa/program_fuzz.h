// Randomized-program generator for the differential fuzz battery.
//
// Each shape emits a seeded, self-contained KX86 program (a flat byte
// image loaded at a fixed code address, always ending in hlt) chosen to
// stress one structural hazard of the chained superblock engine:
// back-edge links re-followed in tight loops, branch-to-branch ladders,
// self-modifying code that rewrites an already-chained successor,
// fall-through chains that cross a page boundary, and call/ret webs.
// The battery runs every program through the stepping and chained
// engines and requires bit-identical outcomes, so the generator
// only has to produce *deterministic* programs — it never needs to know
// what the right answer is.
//
// Programs are built from symbolic items (instruction + optional branch
// target or code-address immediate, both as item indices).  All
// branches are encoded in their long forms, so item offsets are fixed
// by a single length pass and targets/immediates resolve without a
// relaxation fixpoint.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/encode.h"
#include "isa/instruction.h"
#include "support/rng.h"

namespace kfi::isa::fuzz {

inline constexpr std::uint32_t kFuzzPageSize = 4096;
// The MMIO word the stack_binop shape may load: the crash port's page.
inline constexpr std::uint32_t kFuzzMmioWord = 0xFF002000;
// Two adjacent virtual pages, past the kernel's straight map, that the
// stack_binop shape crosses.  Rigs running it map them to two frames
// that are not adjacent, so a word across their boundary takes two
// translations to read or write right.
inline constexpr std::uint32_t kFuzzSplitVirt = 0xC1000000;

// --- Symbolic assembler -------------------------------------------------

class Asm {
 public:
  // Plain instruction.  Returns the item index (usable as a target).
  int add(const Instruction& instr) {
    items_.push_back({instr, kNone, kNone, 0, false});
    return static_cast<int>(items_.size()) - 1;
  }

  // Branch whose `rel` is resolved to reach item `target` (may be an
  // index not emitted yet; call set_target later if so).
  int branch(const Instruction& instr, int target) {
    items_.push_back({instr, target, kNone, 0, false});
    return static_cast<int>(items_.size()) - 1;
  }

  void set_target(int item, int target) { items_[item].branch_target = target; }

  // Re-aims an addr_imm item after its target exists.
  void set_imm_target(int item, int target, std::int32_t delta) {
    items_[item].imm_target = target;
    items_[item].imm_delta = delta;
  }

  // Instruction whose src immediate is patched to the code-space
  // address of item `target` plus `delta` (e.g. +1 to hit the imm32 of
  // a mov-ri).  The placeholder immediate keeps the encoded length of
  // the final value.
  int addr_imm(Instruction instr, int target, std::int32_t delta) {
    instr.src = Operand::make_imm(0x7FFFFFFF);
    items_.push_back({instr, kNone, target, delta, false});
    return static_cast<int>(items_.size()) - 1;
  }

  // 1-byte nop padding up to the next page boundary (relative to the
  // page-aligned load address); a no-op when already aligned.
  int pad_to_page() {
    Instruction nop;
    nop.op = Op::Nop;
    items_.push_back({nop, kNone, kNone, 0, true});
    return static_cast<int>(items_.size()) - 1;
  }

  int next_index() const { return static_cast<int>(items_.size()); }

  // Byte offset of an item within the assembled image (valid only
  // after assemble()).
  std::size_t offset_of(int item) const {
    return offsets_[static_cast<std::size_t>(item)];
  }

  // Resolves offsets, branch displacements, and address immediates,
  // then encodes.  `code_virt` must be page-aligned.
  std::vector<std::uint8_t> assemble(std::uint32_t code_virt) {
    const std::size_t n = items_.size();
    offsets_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t len;
      if (items_[i].pad_page) {
        len = (kFuzzPageSize - (offsets_[i] % kFuzzPageSize)) % kFuzzPageSize;
      } else {
        len = encoded_length(items_[i].instr, /*force_long_branch=*/true);
      }
      offsets_[i + 1] = offsets_[i] + len;
    }
    std::vector<std::uint8_t> bytes;
    bytes.reserve(offsets_[n]);
    for (std::size_t i = 0; i < n; ++i) {
      Item& item = items_[i];
      if (item.pad_page) {
        bytes.resize(offsets_[i + 1], 0x90);  // nop
        continue;
      }
      if (item.branch_target != kNone) {
        item.instr.rel = static_cast<std::int32_t>(
            offsets_[static_cast<std::size_t>(item.branch_target)]) -
            static_cast<std::int32_t>(offsets_[i + 1]);
      }
      if (item.imm_target != kNone) {
        item.instr.src = Operand::make_imm(static_cast<std::int32_t>(
            code_virt +
            offsets_[static_cast<std::size_t>(item.imm_target)] +
            static_cast<std::uint32_t>(item.imm_delta)));
      }
      const bool ok = encode(item.instr, bytes, /*force_long_branch=*/true);
      if (!ok || bytes.size() != offsets_[i + 1]) return {};  // bug in shape
    }
    return bytes;
  }

 private:
  static constexpr int kNone = -1;
  struct Item {
    Instruction instr;
    int branch_target;
    int imm_target;
    std::int32_t imm_delta;
    bool pad_page;
  };
  std::vector<Item> items_;
  std::vector<std::size_t> offsets_;
};

// --- Instruction factories (shared with the vm differential tests) ------

inline Instruction mov_ri(Reg r, std::int32_t imm) {
  Instruction i;
  i.op = Op::Mov;
  i.dst = Operand::make_reg(r);
  i.src = Operand::make_imm(imm);
  return i;
}
inline Instruction alu_rr(Op op, Reg dst, Reg src) {
  Instruction i;
  i.op = op;
  i.dst = Operand::make_reg(dst);
  i.src = Operand::make_reg(src);
  return i;
}
inline Instruction alu_ri(Op op, Reg dst, std::int32_t imm) {
  Instruction i;
  i.op = op;
  i.dst = Operand::make_reg(dst);
  i.src = Operand::make_imm(imm);
  return i;
}
inline Instruction mem_op(Op op, Reg r, Reg base, std::int32_t disp,
                          bool load) {
  Instruction i;
  i.op = op;
  MemRef m;
  m.has_base = true;
  m.base = base;
  m.disp = disp;
  if (load) {
    i.dst = Operand::make_reg(r);
    i.src = Operand::make_mem(m);
  } else {
    i.dst = Operand::make_mem(m);
    i.src = Operand::make_reg(r);
  }
  return i;
}
inline Instruction unary(Op op, Reg r) {
  Instruction i;
  i.op = op;
  i.dst = Operand::make_reg(r);
  return i;
}
inline Instruction nullary(Op op) {
  Instruction i;
  i.op = op;
  return i;
}
inline Instruction jcc(Cond cond, int /*placeholder*/ = 0) {
  Instruction i;
  i.op = Op::Jcc;
  i.cond = cond;
  return i;
}
inline Instruction setcc(Cond cond, Reg r) {
  Instruction i;
  i.op = Op::Setcc;
  i.cond = cond;
  i.dst = Operand::make_reg8(r);
  return i;
}
inline Instruction push_r(Reg r) {
  Instruction i;
  i.op = Op::Push;
  i.src = Operand::make_reg(r);
  return i;
}
inline Instruction pop_r(Reg r) {
  Instruction i;
  i.op = Op::Pop;
  i.dst = Operand::make_reg(r);
  return i;
}
inline Instruction movzx_r8(Reg dst, Reg src) {
  Instruction i;
  i.op = Op::Movzx8;
  i.dst = Operand::make_reg(dst);
  i.src = Operand::make_reg8(src);
  return i;
}
// mov r <- [addr], absolute (no base register).
inline Instruction load_abs(Reg r, std::uint32_t addr) {
  Instruction i;
  i.op = Op::Mov;
  MemRef m;
  m.disp = static_cast<std::int32_t>(addr);
  i.dst = Operand::make_reg(r);
  i.src = Operand::make_mem(m);
  return i;
}
inline Instruction jmp() {
  Instruction i;
  i.op = Op::Jmp;
  return i;
}
inline Instruction call() {
  Instruction i;
  i.op = Op::Call;
  return i;
}

// --- Shapes -------------------------------------------------------------

enum class Shape {
  Mixed,        // the historical random mix: alu, memory, skips, traps, SMC
  TightLoops,   // countdown loops — back-edge chain links re-followed
  BranchLadder, // permuted jmp/jcc ladders — branch-to-branch chains
  SmcChain,     // a loop that rewrites an already-chained successor block
  CrossPage,    // fall-through and jumps across a page boundary
  CallRet,      // call/ret webs — CallInd-free but stack-driven successors
  DeadFlags,    // long dead-flag ALU runs ended by a live cmp + jcc
  FlagEdge,     // flag producer/consumer pairs straddling chain edges
  MemMix,       // dense loads/stores, incl. page-crossing pointers
  CondEdge,     // both-way conditional diamonds — both jcc link slots
  StackBinop,   // minic's binop and compare idioms — the fused group
};

inline constexpr Shape kAllShapes[] = {
    Shape::Mixed,      Shape::TightLoops, Shape::BranchLadder,
    Shape::SmcChain,   Shape::CrossPage,  Shape::CallRet,
    Shape::DeadFlags,  Shape::FlagEdge,   Shape::MemMix,
    Shape::CondEdge,   Shape::StackBinop,
};

inline const char* shape_name(Shape s) {
  switch (s) {
    case Shape::Mixed: return "mixed";
    case Shape::TightLoops: return "tight_loops";
    case Shape::BranchLadder: return "branch_ladder";
    case Shape::SmcChain: return "smc_chain";
    case Shape::CrossPage: return "cross_page";
    case Shape::CallRet: return "call_ret";
    case Shape::DeadFlags: return "dead_flags";
    case Shape::FlagEdge: return "flag_edge";
    case Shape::MemMix: return "mem_mix";
    case Shape::CondEdge: return "cond_edge";
    case Shape::StackBinop: return "stack_binop";
  }
  return "?";
}

struct FuzzProgram {
  std::vector<std::uint8_t> bytes;  // load at code_virt
  std::uint64_t max_cycles = 20000;
};

namespace detail {

inline Reg scratch(Rng& rng) {  // eax/ecx/edx/ebx
  return static_cast<Reg>(rng.below(4));
}

// A few register-only ops that cannot fault or touch memory.
inline void emit_safe_body(Asm& a, Rng& rng, int count) {
  static constexpr Op kAlu[] = {Op::Add, Op::Sub, Op::Xor, Op::Or,
                                Op::And, Op::Cmp, Op::Test};
  for (int i = 0; i < count; ++i) {
    switch (rng.below(3)) {
      case 0:
        a.add(mov_ri(scratch(rng), static_cast<std::int32_t>(rng.next_u32())));
        break;
      case 1:
        a.add(alu_rr(kAlu[rng.below(7)], scratch(rng), scratch(rng)));
        break;
      default:
        a.add(unary(rng.below(2) ? Op::Inc : Op::Dec, scratch(rng)));
        break;
    }
  }
}

inline void gen_mixed(Asm& a, Rng& rng, std::uint32_t code_virt,
                      std::uint32_t data_virt) {
  const int count = 24 + static_cast<int>(rng.below(40));
  for (int i = 0; i < count; ++i) {
    switch (rng.below(10)) {
      case 0:
      case 1:
        emit_safe_body(a, rng, 1);
        break;
      case 2: {  // data load/store
        a.add(mov_ri(Reg::Esi, static_cast<std::int32_t>(
                                   data_virt + 4 * rng.below(64))));
        a.add(mem_op(Op::Mov, scratch(rng), Reg::Esi, 0,
                     rng.below(2) == 0));
        break;
      }
      case 3: {  // store into the code page tail: version-bump stress
        // The tail past +0x800 is dead space (mixed programs stay well
        // under 2 KiB), so the write is harmless but bumps the
        // executing page's version every iteration it runs.
        a.add(mov_ri(Reg::Edi, static_cast<std::int32_t>(
                                   code_virt + 0x800 + 4 * rng.below(8))));
        a.add(mem_op(Op::Mov, Reg::Eax, Reg::Edi, 0, false));
        break;
      }
      case 4: {  // conditional skip over one instruction
        const int j = a.branch(jcc(static_cast<Cond>(rng.below(16))), 0);
        a.add(mov_ri(scratch(rng),
                     static_cast<std::int32_t>(rng.next_u32())));
        a.set_target(j, a.next_index());
        break;
      }
      case 5: {  // short unconditional hop (trace-widening fodder)
        const int j = a.branch(jmp(), 0);
        emit_safe_body(a, rng, static_cast<int>(rng.below(3)));
        a.set_target(j, a.next_index());
        break;
      }
      case 6:
        if (rng.below(8) == 0) {
          // Rare trap: load from unmapped space parks at the handler.
          a.add(mov_ri(Reg::Ecx, static_cast<std::int32_t>(0xC2000000)));
          a.add(mem_op(Op::Mov, Reg::Edx, Reg::Ecx, 0, true));
        } else {
          a.add(nullary(Op::Nop));
        }
        break;
      case 7:
        if (rng.below(16) == 0) {
          a.add(nullary(rng.below(2) ? Op::Ud2 : Op::Int3));  // trap, park
        } else {
          a.add(alu_rr(Op::Cmp, scratch(rng), scratch(rng)));
        }
        break;
      default:
        emit_safe_body(a, rng, 1);
        break;
    }
  }
}

inline void gen_tight_loops(Asm& a, Rng& rng, std::uint32_t data_virt) {
  a.add(mov_ri(Reg::Esi, static_cast<std::int32_t>(data_virt)));
  const int loops = 1 + static_cast<int>(rng.below(3));
  for (int l = 0; l < loops; ++l) {
    a.add(mov_ri(Reg::Ecx,
                 3 + static_cast<std::int32_t>(rng.below(40))));
    const int top = a.next_index();
    const int body = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < body; ++i) {
      if (rng.below(4) == 0) {
        a.add(mem_op(Op::Mov, Reg::Eax, Reg::Esi,
                     static_cast<std::int32_t>(4 * rng.below(16)),
                     rng.below(2) == 0));
      } else {
        static constexpr Reg kSpare[] = {Reg::Eax, Reg::Edx, Reg::Ebx};
        a.add(alu_rr(rng.below(2) ? Op::Add : Op::Xor,
                     kSpare[rng.below(3)],  // never ecx, the loop counter
                     kSpare[rng.below(3)]));
      }
    }
    a.add(unary(Op::Dec, Reg::Ecx));
    a.branch(jcc(Cond::Ne), top);
  }
}

inline void gen_branch_ladder(Asm& a, Rng& rng) {
  // K logical blocks laid out in a random memory order; block i ends in
  // a jmp (sometimes a jcc/jmp pair) to logical block i+1.  Several
  // blocks are empty — pure branch-to-branch hops.
  const int k = 6 + static_cast<int>(rng.below(10));
  std::vector<int> layout(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) layout[static_cast<std::size_t>(i)] = i;
  for (int i = k - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.below(static_cast<std::uint64_t>(i + 1)));
    std::swap(layout[static_cast<std::size_t>(i)],
              layout[static_cast<std::size_t>(j)]);
  }
  // Entry must be the memory-first block; rotate the logical chain so
  // layout[0] is logical 0.
  std::vector<int> logical_of_pos(layout.begin(), layout.end());
  const int first_logical = logical_of_pos[0];
  std::vector<int> start_item(static_cast<std::size_t>(k), -1);
  std::vector<int> pending_jmp(static_cast<std::size_t>(k), -1);
  std::vector<int> pending_jcc(static_cast<std::size_t>(k), -1);
  for (int pos = 0; pos < k; ++pos) {
    const int logical =
        (logical_of_pos[static_cast<std::size_t>(pos)] - first_logical + k) %
        k;
    start_item[static_cast<std::size_t>(logical)] = a.next_index();
    if (rng.below(3) != 0) {  // 2/3 of blocks carry a small body
      emit_safe_body(a, rng, 1 + static_cast<int>(rng.below(3)));
    }
    if (logical == k - 1) {
      a.add(nullary(Op::Hlt));
      continue;
    }
    if (rng.below(3) == 0) {
      // jcc to the successor backed by a jmp to the same place: taken
      // exercises the target link slot, not-taken falls through into a
      // one-instruction jmp block — a branch-to-branch hop.
      pending_jcc[static_cast<std::size_t>(logical)] =
          a.branch(jcc(static_cast<Cond>(rng.below(16))), 0);
    }
    pending_jmp[static_cast<std::size_t>(logical)] = a.branch(jmp(), 0);
  }
  for (int logical = 0; logical + 1 < k; ++logical) {
    const int succ = start_item[static_cast<std::size_t>(logical + 1)];
    a.set_target(pending_jmp[static_cast<std::size_t>(logical)], succ);
    if (pending_jcc[static_cast<std::size_t>(logical)] >= 0) {
      a.set_target(pending_jcc[static_cast<std::size_t>(logical)], succ);
    }
  }
}

inline void gen_smc_chain(Asm& a, Rng& rng) {
  // A two-pass loop: the first iteration builds and chains
  // head -> mid -> marker; the store then rewrites the marker block's
  // immediate in place, so the second iteration must observe the severed
  // chain and the new bytes.
  const std::int32_t iters = 2 + static_cast<std::int32_t>(rng.below(3));
  a.add(mov_ri(Reg::Edi, iters));
  a.add(mov_ri(Reg::Esi, 0));
  const int outer = a.next_index();
  // eax = seed-dependent value mixed with the loop counter.
  a.add(mov_ri(Reg::Eax, static_cast<std::int32_t>(rng.next_u32())));
  a.add(alu_rr(Op::Add, Reg::Eax, Reg::Edi));
  const int store = a.addr_imm(mov_ri(Reg::Ecx, 0), 0, 0);  // re-aimed below
  a.add(mem_op(Op::Mov, Reg::Eax, Reg::Ecx, 0, false));     // rewrite imm32
  const int hop1 = a.branch(jmp(), 0);
  // mid block (chained between head and marker)
  a.set_target(hop1, a.next_index());
  emit_safe_body(a, rng, 1 + static_cast<int>(rng.below(2)));
  const int hop2 = a.branch(jmp(), 0);
  // marker block: the rewritten mov executes here.
  a.set_target(hop2, a.next_index());
  const int marker = a.add(mov_ri(Reg::Ebx, 0x11111111));
  // ecx = &marker_imm32: one byte past the B8+r opcode, so the dword
  // store replaces exactly the immediate and the marker stays decodable.
  a.set_imm_target(store, marker, 1);
  a.add(alu_rr(Op::Add, Reg::Esi, Reg::Ebx));
  a.add(unary(Op::Dec, Reg::Edi));
  a.branch(jcc(Cond::Ne), outer);
}

inline void gen_cross_page(Asm& a, Rng& rng, std::uint32_t data_virt) {
  emit_safe_body(a, rng, 2 + static_cast<int>(rng.below(6)));
  const bool jump_across = rng.below(2) == 0;
  int hop = -1;
  if (jump_across) {
    // Sometimes-taken jcc over the sled straight onto the next page.
    hop = a.branch(jcc(static_cast<Cond>(rng.below(16))), 0);
  }
  // Fall-through path: a nop sled to the page boundary.  Cap-ended
  // blocks chain via fall-through, so the chain crosses the page.
  a.pad_to_page();
  if (hop >= 0) a.set_target(hop, a.next_index());
  // Second page: a small loop so the cross-page entry block is re-entered.
  a.add(mov_ri(Reg::Esi, static_cast<std::int32_t>(data_virt + 0x100)));
  a.add(mov_ri(Reg::Ecx, 2 + static_cast<std::int32_t>(rng.below(6))));
  const int top = a.next_index();
  emit_safe_body(a, rng, 1 + static_cast<int>(rng.below(3)));
  a.add(mem_op(Op::Mov, Reg::Eax, Reg::Esi, 0, false));
  a.add(unary(Op::Dec, Reg::Ecx));
  a.branch(jcc(Cond::Ne), top);
}

inline void gen_call_ret(Asm& a, Rng& rng) {
  // Main calls a handful of subroutines (some nested), then halts.
  const int subs = 2 + static_cast<int>(rng.below(3));
  std::vector<int> call_sites;
  const int calls = 2 + static_cast<int>(rng.below(4));
  std::vector<int> which;
  for (int c = 0; c < calls; ++c) {
    emit_safe_body(a, rng, static_cast<int>(rng.below(3)));
    call_sites.push_back(a.branch(call(), 0));
    which.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(subs))));
  }
  a.add(nullary(Op::Hlt));
  std::vector<int> sub_start(static_cast<std::size_t>(subs));
  std::vector<int> nested_site;
  std::vector<int> nested_target;
  for (int s = 0; s < subs; ++s) {
    sub_start[static_cast<std::size_t>(s)] = a.next_index();
    emit_safe_body(a, rng, 1 + static_cast<int>(rng.below(4)));
    if (s + 1 < subs && rng.below(2) == 0) {
      nested_site.push_back(a.branch(call(), 0));
      nested_target.push_back(s + 1);  // only call later subs: no recursion
    }
    a.add(nullary(Op::Ret));
  }
  for (std::size_t i = 0; i < call_sites.size(); ++i) {
    a.set_target(call_sites[i],
                 sub_start[static_cast<std::size_t>(which[i])]);
  }
  for (std::size_t i = 0; i < nested_site.size(); ++i) {
    a.set_target(nested_site[i],
                 sub_start[static_cast<std::size_t>(nested_target[i])]);
  }
}

inline void gen_dead_flags(Asm& a, Rng& rng) {
  // Long straight-line runs of register-only ALU ops whose flag writes
  // are all dead — each op's flags are clobbered by a later op before
  // any consumer reads them — closed by a cmp/jcc pair whose flags ARE
  // live, all inside a countdown loop so chained traces re-follow the
  // run.  Inc/Dec (CF preserved) and Neg are mixed in so partial flag
  // updates get exercised, not just the all-five ALU writes.
  static constexpr Op kAlu[] = {Op::Add, Op::Sub, Op::Xor, Op::Or, Op::And};
  static constexpr Reg kSpare[] = {Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx};
  a.add(mov_ri(Reg::Edi, 2 + static_cast<std::int32_t>(rng.below(4))));
  const int top = a.next_index();
  const int run = 8 + static_cast<int>(rng.below(24));
  for (int i = 0; i < run; ++i) {
    switch (rng.below(4)) {
      case 0:
        a.add(alu_rr(kAlu[rng.below(5)], kSpare[rng.below(4)],
                     kSpare[rng.below(4)]));
        break;
      case 1:
        a.add(unary(rng.below(2) ? Op::Inc : Op::Dec, kSpare[rng.below(4)]));
        break;
      case 2:
        a.add(unary(Op::Neg, kSpare[rng.below(4)]));
        break;
      default:
        a.add(mov_ri(kSpare[rng.below(4)],
                     static_cast<std::int32_t>(rng.next_u32())));
        break;
    }
  }
  // The run's only live flags: a cmp consumed by a one-instruction skip.
  a.add(alu_rr(Op::Cmp, kSpare[rng.below(4)], kSpare[rng.below(4)]));
  const int skip = a.branch(jcc(static_cast<Cond>(rng.below(16))), 0);
  a.add(mov_ri(kSpare[rng.below(4)],
               static_cast<std::int32_t>(rng.next_u32())));
  a.set_target(skip, a.next_index());
  a.add(unary(Op::Dec, Reg::Edi));
  a.branch(jcc(Cond::Ne), top);
}

inline void gen_flag_edge(Asm& a, Rng& rng) {
  // Segments where the flag producer is the LAST op before a chain edge
  // and the consumer (setcc or jcc) is the FIRST op of the successor
  // block: the flags must cross every chain edge exactly as the
  // stepper leaves them.  A countdown loop re-follows the patched links
  // so the second pass runs through already-chained traces.
  a.add(mov_ri(Reg::Edi, 2 + static_cast<std::int32_t>(rng.below(3))));
  a.add(mov_ri(Reg::Esi, 0));
  const int top = a.next_index();
  const int segs = 3 + static_cast<int>(rng.below(4));
  for (int s = 0; s < segs; ++s) {
    emit_safe_body(a, rng, 1 + static_cast<int>(rng.below(3)));
    // Producer right at the edge.  Cmp/Test write flags without
    // touching registers; Add/Sub also mutate the register file.
    static constexpr Op kProd[] = {Op::Cmp, Op::Test, Op::Add, Op::Sub};
    a.add(alu_rr(kProd[rng.below(4)], scratch(rng), scratch(rng)));
    // The edge: jmp chains via the target link, jcc via target or
    // fall-through — both aimed at the consumer.
    const int edge = a.branch(
        rng.below(2) ? jmp() : jcc(static_cast<Cond>(rng.below(16))), 0);
    a.set_target(edge, a.next_index());
    // Consumer straddles the edge: first op of the successor block.
    if (rng.below(2) == 0) {
      a.add(setcc(static_cast<Cond>(rng.below(16)), scratch(rng)));
    } else {
      const int skip = a.branch(jcc(static_cast<Cond>(rng.below(16))), 0);
      a.add(mov_ri(scratch(rng), static_cast<std::int32_t>(rng.next_u32())));
      a.set_target(skip, a.next_index());
    }
    // Accumulate so every segment's outcome stays run-visible even if
    // later filler overwrites the scratch registers.
    a.add(alu_rr(Op::Add, Reg::Esi, scratch(rng)));
  }
  a.add(unary(Op::Dec, Reg::Edi));
  a.branch(jcc(Cond::Ne), top);
}

inline void gen_mem_mix(Asm& a, Rng& rng, std::uint32_t data_virt) {
  // Dense loads and stores inside a countdown loop: the inline TLB-hit
  // data path must serve repeat accesses to the same pages without
  // changing any run-visible state, and the page-crossing pointers
  // (esi parked a few bytes shy of a page boundary) drive every 32-bit
  // access through the two-page translate path on some iterations.  Stores
  // are interleaved with reads of the same slots so a stale TLB
  // frame or a missed write-permission check shows up as a wrong
  // value, not just a wrong counter.
  static constexpr Reg kSpare[] = {Reg::Eax, Reg::Edx, Reg::Ebx};
  a.add(mov_ri(Reg::Esi, static_cast<std::int32_t>(
                             data_virt + 4 * rng.below(32))));
  // 0xFFD..0xFFF within the page: a 32-bit access straddles the page
  // boundary; 0xFFC stays single-page as a control.
  a.add(mov_ri(Reg::Edi, static_cast<std::int32_t>(
                             data_virt + kFuzzPageSize - 4 + rng.below(4))));
  a.add(mov_ri(Reg::Ecx, 3 + static_cast<std::int32_t>(rng.below(10))));
  const int top = a.next_index();
  const int body = 6 + static_cast<int>(rng.below(10));
  for (int i = 0; i < body; ++i) {
    const Reg r = kSpare[rng.below(3)];
    switch (rng.below(6)) {
      case 0:  // same-page store
        a.add(mem_op(Op::Mov, r, Reg::Esi,
                     static_cast<std::int32_t>(4 * rng.below(16)), false));
        break;
      case 1:  // same-page load
        a.add(mem_op(Op::Mov, r, Reg::Esi,
                     static_cast<std::int32_t>(4 * rng.below(16)), true));
        break;
      case 2:  // page-crossing (or boundary-adjacent) store
        a.add(mem_op(Op::Mov, r, Reg::Edi, 0, false));
        break;
      case 3:  // page-crossing (or boundary-adjacent) load
        a.add(mem_op(Op::Mov, r, Reg::Edi, 0, true));
        break;
      case 4:  // second page, far slot: a distinct TLB set
        a.add(mem_op(Op::Mov, r, Reg::Esi,
                     static_cast<std::int32_t>(kFuzzPageSize +
                                               4 * rng.below(16)),
                     rng.below(2) == 0));
        break;
      default:
        emit_safe_body(a, rng, 1);
        break;
    }
  }
  a.add(unary(Op::Dec, Reg::Ecx));
  a.branch(jcc(Cond::Ne), top);
}

inline void gen_cond_edge(Asm& a, Rng& rng) {
  // Conditional diamonds whose direction alternates across iterations
  // of an enclosing countdown loop: each jcc takes both edges — half
  // the iterations each, by construction, since the branch keys on low
  // bits of the loop counter — so both of its chain-link slots (taken
  // and fall-through) are patched and re-validated.  Each path writes a
  // different accumulator delta so a wrongly-followed link changes
  // run-visible state.
  static constexpr Reg kSpare[] = {Reg::Eax, Reg::Edx, Reg::Ebx};
  a.add(mov_ri(Reg::Edi, 4 + static_cast<std::int32_t>(rng.below(10))));
  a.add(mov_ri(Reg::Esi, 0));
  const int top = a.next_index();
  const int diamonds = 2 + static_cast<int>(rng.below(3));
  for (int d = 0; d < diamonds; ++d) {
    // eax = edi & mask: alternates with period 2, 4, or 8.
    a.add(alu_rr(Op::Mov, Reg::Eax, Reg::Edi));
    a.add(alu_ri(Op::And, Reg::Eax,
                 static_cast<std::int32_t>(1u << rng.below(3))));
    const int jcc_item =
        a.branch(jcc(rng.below(2) ? Cond::Ne : Cond::E), 0);
    // Fall-through arm.
    a.add(alu_ri(Op::Add, Reg::Esi,
                 1 + static_cast<std::int32_t>(rng.below(100))));
    emit_safe_body(a, rng, static_cast<int>(rng.below(2)));
    const int join = a.branch(jmp(), 0);
    // Taken arm.
    a.set_target(jcc_item, a.next_index());
    a.add(alu_ri(Op::Add, Reg::Esi,
                 1 + static_cast<std::int32_t>(rng.below(100))));
    a.add(alu_rr(rng.below(2) ? Op::Xor : Op::Add, kSpare[rng.below(3)],
                 kSpare[rng.below(3)]));
    a.set_target(join, a.next_index());
  }
  a.add(unary(Op::Dec, Reg::Edi));
  a.branch(jcc(Cond::Ne), top);
}

inline void gen_stack_binop(Asm& a, Rng& rng, std::uint32_t data_virt) {
  // minic's binary-expression idiom, push r1; mov r1 <- X;
  // mov r2 <- r1; pop r1 [; alu r1, r2], in a countdown loop, so the
  // chained engine runs it as a fused group, and at every edge where
  // the group must decline and run op by op: a push that crosses a
  // page (esp at page offset 0-3), a push that rewrites a later op of
  // the same trace, a stack or X page evicted from the TLB, X read off
  // esp (overlapping the pushed slot), X across a page boundary or on
  // the MMIO page, r2 == r1, and ALU tails that do not fuse.  Page
  // crossings use the split pages, so a word read or written as one
  // physical access lands on the wrong frame.  minic's compare idiom,
  // [cmp;] setcc x8; movzbl x8, x; test x, x; jcc, follows the groups
  // as it does in the kernel.
  const std::uint32_t esi = data_virt + 4 * rng.below(64);
  int esp_item = -1;  // esp aimed at a later op of the loop's trace
  switch (rng.below(4)) {
    case 0:  // aligned, mid-page
      a.add(mov_ri(Reg::Esp, static_cast<std::int32_t>(
                                 data_virt + 0x2100 + 4 * rng.below(64))));
      break;
    case 1:  // second split page, offset 0-3: the push crosses at 1-3
      a.add(mov_ri(Reg::Esp, static_cast<std::int32_t>(
                                 kFuzzSplitVirt + kFuzzPageSize +
                                 rng.below(4))));
      break;
    case 2:
      esp_item = a.addr_imm(mov_ri(Reg::Esp, 0), 0, 0);
      break;
    default:  // anywhere in a page, unaligned included
      a.add(mov_ri(Reg::Esp, static_cast<std::int32_t>(
                                 data_virt + 0x4000 +
                                 rng.below(kFuzzPageSize))));
      break;
  }
  const bool mmio = rng.below(4) == 0;
  a.add(mov_ri(Reg::Esi, static_cast<std::int32_t>(esi)));
  a.add(mov_ri(Reg::Ebp, 0));
  a.add(mov_ri(Reg::Edi, 2 + static_cast<std::int32_t>(rng.below(4))));
  const int top = a.next_index();
  const int groups = 3 + static_cast<int>(rng.below(6));
  // 1 MiB apart: the same slot of the direct-mapped TLB.
  constexpr std::int32_t kTlbAlias = -0x100000;
  for (int g = 0; g < groups; ++g) {
    const std::uint64_t pick =
        g == 0 && esp_item >= 0 ? 2 : rng.below(10);
    if (pick == 0) {  // evict the stack page's TLB entry
      a.add(mem_op(Op::Mov, scratch(rng), Reg::Esp, kTlbAlias, true));
      continue;
    }
    if (pick == 1) {  // evict X's page
      a.add(mem_op(Op::Mov, scratch(rng), Reg::Esi, kTlbAlias, true));
      continue;
    }
    if (pick < 7) {
      const Reg r1 = scratch(rng);
      const Reg r2 = rng.below(4) == 0 ? r1 : scratch(rng);
      // With esp in the code, each push stores four nops there.
      if (esp_item >= 0) {
        a.add(mov_ri(r1, static_cast<std::int32_t>(0x90909090u)));
      }
      a.add(push_r(r1));
      switch (rng.below(8)) {
        case 0:
        case 1:
          a.add(mov_ri(r1, static_cast<std::int32_t>(rng.next_u32())));
          break;
        case 2: {
          static constexpr Reg kSrc[] = {Reg::Eax, Reg::Ecx, Reg::Edx,
                                         Reg::Ebx, Reg::Esp, Reg::Esi};
          a.add(alu_rr(Op::Mov, r1, kSrc[rng.below(6)]));
          break;
        }
        case 3:
        case 4:
          a.add(mem_op(Op::Mov, r1, Reg::Esi,
                       static_cast<std::int32_t>(4 * rng.below(16)), true));
          break;
        case 5: {  // off esp: the pushed slot, partly or not at all
          static constexpr std::int32_t kDisp[] = {0, 2, 4, 8, -4};
          a.add(mem_op(Op::Mov, r1, Reg::Esp, kDisp[rng.below(5)], true));
          break;
        }
        case 6:  // the last word of the first split page, or across
          a.add(load_abs(r1, kFuzzSplitVirt + kFuzzPageSize - 4 +
                                 static_cast<std::uint32_t>(rng.below(4))));
          break;
        default:
          if (mmio) {
            a.add(load_abs(r1, kFuzzMmioWord));
          } else {
            a.add(mov_ri(r1, static_cast<std::int32_t>(rng.below(3))));
          }
          break;
      }
      a.add(alu_rr(Op::Mov, r2, r1));
      a.add(pop_r(r1));
      static constexpr Op kTail[] = {Op::Add, Op::Sub, Op::And, Op::Cmp,
                                     Op::Or,  Op::Xor, Op::Nop, Op::Nop};
      const Op tail = kTail[rng.below(8)];
      if (tail != Op::Nop) a.add(alu_rr(tail, r1, r2));
      a.add(alu_rr(Op::Add, Reg::Ebp, r1));
      if (g == 0 && esp_item >= 0) {
        // The push's target: two 2-byte adds the stepper sees turn
        // into nops on the first pass.
        const int target = a.add(alu_rr(Op::Add, Reg::Ebp, Reg::Ebx));
        a.add(alu_rr(Op::Add, Reg::Ebp, Reg::Ecx));
        a.set_imm_target(esp_item, target, 4);
      }
    } else {
      if (rng.below(2) == 0) {
        a.add(alu_rr(Op::Cmp, scratch(rng), scratch(rng)));
      }
      const Reg x = scratch(rng);
      a.add(setcc(static_cast<Cond>(rng.below(16)), x));
      // One in six widens another register: not the idiom.
      a.add(movzx_r8(x, rng.below(6) == 0 ? scratch(rng) : x));
      a.add(alu_rr(Op::Test, x, x));
      const int skip = a.branch(jcc(rng.below(2) ? Cond::E : Cond::Ne), 0);
      a.add(unary(Op::Inc, Reg::Ebp));
      a.set_target(skip, a.next_index());
    }
  }
  a.add(unary(Op::Dec, Reg::Edi));
  a.branch(jcc(Cond::Ne), top);
}

}  // namespace detail

// Generates the seeded program for `shape`.  `code_virt` must be
// page-aligned; `data_virt` names a mapped, writable scratch region of
// at least 20 KiB, and 1 MiB below it must be mapped too.  StackBinop
// also needs the split pages (kFuzzSplitVirt) mapped and may read
// kFuzzMmioWord.
inline FuzzProgram generate(Shape shape, std::uint64_t seed,
                            std::uint32_t code_virt,
                            std::uint32_t data_virt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(shape));
  Asm a;
  switch (shape) {
    case Shape::Mixed:
      detail::gen_mixed(a, rng, code_virt, data_virt);
      break;
    case Shape::TightLoops:
      detail::gen_tight_loops(a, rng, data_virt);
      break;
    case Shape::BranchLadder:
      detail::gen_branch_ladder(a, rng);
      break;
    case Shape::SmcChain:
      detail::gen_smc_chain(a, rng);
      break;
    case Shape::CrossPage:
      detail::gen_cross_page(a, rng, data_virt);
      break;
    case Shape::CallRet:
      detail::gen_call_ret(a, rng);
      break;
    case Shape::DeadFlags:
      detail::gen_dead_flags(a, rng);
      break;
    case Shape::FlagEdge:
      detail::gen_flag_edge(a, rng);
      break;
    case Shape::MemMix:
      detail::gen_mem_mix(a, rng, data_virt);
      break;
    case Shape::CondEdge:
      detail::gen_cond_edge(a, rng);
      break;
    case Shape::StackBinop:
      detail::gen_stack_binop(a, rng, data_virt);
      break;
  }
  if (shape != Shape::BranchLadder) a.add(nullary(Op::Hlt));
  FuzzProgram out;
  out.bytes = a.assemble(code_virt);
  out.max_cycles = 20000;
  return out;
}

}  // namespace kfi::isa::fuzz
