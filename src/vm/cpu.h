// The KX86 CPU core: fetch/decode/execute with IA-32-style privilege
// levels, trap delivery through a vector table, debug registers (the
// injection trigger, as in the paper's injector and Xception), and a
// cycle counter (the paper's performance counter for crash latency).
#pragma once

#include <cstdint>
#include <vector>

#include "isa/decode.h"
#include "isa/instruction.h"
#include "isa/isa.h"
#include "vm/bus.h"
#include "vm/layout.h"
#include "vm/liveness.h"
#include "vm/memory.h"
#include "vm/mmu.h"

namespace kfi::trace {
class TraceBuffer;
}

namespace kfi::vm {

// What step() observed.  Executed is the common case; everything else
// is a host-visible event.
enum class CpuEventKind : std::uint8_t {
  Executed,     // one instruction retired (possibly delivering a trap)
  Breakpoint,   // debug register matched at fetch; instruction NOT executed
  Halted,       // hlt with interrupts enabled; host advances time
  DoubleFault,  // trap delivery failed twice: CPU is dead (hard hang)
};

struct CpuEvent {
  CpuEventKind kind = CpuEventKind::Executed;
  int breakpoint_index = -1;
  bool trap_taken = false;     // a trap was delivered during this step
  isa::Trap trap = isa::Trap::None;
};

// Sees each instruction as it starts: its address and the cycle
// counter before it retires.  Attached with Cpu::set_exec_observer for
// the golden capture pass (touch windows, syscall exits).
class ExecObserver {
 public:
  virtual void executes(std::uint32_t pc, std::uint64_t cycle) = 0;

 protected:
  ~ExecObserver() = default;
};

// Record of the most recent trap delivery; the crash handler analysis
// reads this to timestamp manifestation (paper §5.3: the latency is
// measured at the fault, with handler switching time subtracted).
struct TrapRecord {
  isa::Trap trap = isa::Trap::None;
  std::uint32_t error_code = 0;
  std::uint32_t fault_addr = 0;
  std::uint32_t faulting_eip = 0;
  int faulting_cpl = 0;
  std::uint64_t cycle = 0;
};

class Cpu {
 public:
  Cpu(PhysicalMemory& memory, Bus& bus);

  // --- Architectural state ---
  std::uint32_t reg(isa::Reg r) const { return regs_[static_cast<int>(r)]; }
  void set_reg(isa::Reg r, std::uint32_t v) { regs_[static_cast<int>(r)] = v; }
  std::uint32_t eip() const { return eip_; }
  void set_eip(std::uint32_t v) { eip_ = v; }
  const isa::Flags& flags() const { return flags_; }
  isa::Flags& flags() { return flags_; }
  int cpl() const { return cpl_; }
  void set_cpl(int cpl) { cpl_ = cpl; }
  Mmu& mmu() { return mmu_; }

  std::uint64_t cycles() const { return cycles_; }
  void set_cycles(std::uint64_t cycles) { cycles_ = cycles; }

  // Clears dead/halted/resume state when the host restores a snapshot.
  void reset_fault_state() {
    dead_ = false;
    halted_ = false;
    resume_flag_ = false;
  }
  bool halted() const { return halted_; }
  // Host-side restore of a mid-run checkpoint captured while the CPU
  // was sitting in hlt.
  void set_halted(bool halted) { halted_ = halted; }

  // --- Trap vector table (the "IDT", programmed by the boot loader) ---
  void set_vector(int vector, std::uint32_t handler_vaddr);
  std::uint32_t vector(int v) const { return vectors_[v & 0xFF]; }

  // --- Debug registers (injection trigger) ---
  // Arms breakpoint `index` (0..3) on instruction address `vaddr`.
  void arm_breakpoint(int index, std::uint32_t vaddr);
  void disarm_breakpoint(int index);

  // --- Execution ---
  CpuEvent step();

  // Superblock engine: executes up to `max_instructions` predecoded
  // micro-ops starting at the current eip with a single dispatch, and
  // returns the number retired (0 = the caller must single-step via
  // step()).  Guards hoisted out of the inner loop:
  //   - the caller bounds `max_instructions` so no timer tick or run
  //     deadline can fall inside the dispatch;
  //   - a block containing an instruction whose address matches an
  //     armed debug register is refused (single-step delivers the
  //     Breakpoint event at the exact instruction);
  //   - the fetch translation is re-verified at every page change and
  //     after every TLB mutation, and the code-page write version at
  //     trace entry, at every page change and after every op that may
  //     store, so self-modifying code, page remaps, and injection flips
  //     break out of the block exactly where the stepping engine would
  //     re-decode;
  //   - `stop` (the host's crash-port latch, set only by an MMIO store)
  //     aborts the block after the instruction that sets it, and
  //     traps/hlt/double faults end it exactly as step() would surface
  //     them.
  // Blocks widen into traces across direct jmp and call.  A fully
  // executed block whose terminator cannot enable interrupts follows a
  // per-terminator successor link (taken / fall-through slots) to the
  // next block and keeps executing inside this one dispatch, up to
  // `max_instructions`.  Links are monomorphic inline caches validated
  // on every follow against the successor's entry paddr/vaddr and
  // code-page version, so the page-version invalidation scheme (and
  // invalidate_blocks() at injection flip sites) severs stale chains
  // automatically.  Executing N micro-ops is bit-identical to N step()
  // calls.  Trace micro-ops run operand-form-specialized handlers
  // (select_handler), and the code generator's binary-expression
  // idiom runs as a fused group, one dispatch per group
  // (select_fused); step() always runs the generic per-opcode
  // handlers, so each engine checks the other.
  // With an exec observer or a liveness recorder attached, the dispatch
  // records: every op reports its start to the observer and its fetch
  // bytes to the recorder, as step() does, and fused groups run op by
  // op.  The choice is made once per dispatch, so the plain loop carries
  // no per-op check.
  std::size_t run_block(std::uint64_t max_instructions, const bool* stop,
                        CpuEvent& event);

  // Drops every cached block containing a micro-op on the page holding
  // `paddr`.  The injector calls this on its bit flip; the per-op
  // version check would catch the stale block anyway, so this is a
  // fast-path hint, not a correctness requirement.
  void invalidate_blocks(std::uint32_t paddr);

  // Delivers an external interrupt (timer) if IF is set; returns true if
  // delivered.  The host calls this between steps.
  bool deliver_interrupt(isa::Trap trap);

  const TrapRecord& last_trap() const { return last_trap_; }

  // Attaches a forensics event sink (nullptr = off, the default).  The
  // CPU records trap deliveries (frame essentials), trap returns, and
  // block-cache invalidations into it.  Strictly observational: no
  // architectural state, cycle count, or execution path depends on the
  // sink — tracing on and off are bit-identical.
  void set_trace_sink(kfi::trace::TraceBuffer* sink) { trace_sink_ = sink; }

  // Attaches a liveness recorder (nullptr = off, the default) that
  // both engines report every RAM access to: data reads and writes
  // (cpl-0 stores as kernel_store, which builds campaign E's
  // footprint), trap-frame pushes, the TSS read and each executed
  // instruction's bytes (per step, decode-cache hits included, and per
  // executed trace op); the MMU reports its walks.  Block construction
  // reports nothing.  Purely observational (the golden capture pass).
  // Attaching it makes Mmu::probe miss, so the inline TLB-hit accessors
  // below are never taken while it is set and carry no hook.
  void set_liveness(ByteLiveness* liveness) {
    liveness_ = liveness;
    mmu_.set_liveness(liveness);
  }

  // Attaches the observer every executed instruction is reported to
  // (nullptr = off, the default), by step() and by run_block() alike.
  // Purely observational.
  void set_exec_observer(ExecObserver* observer) { observer_ = observer; }

  // Whether the CPU is permanently stopped (double fault escalated).
  bool dead() const { return dead_; }

  // Decode-cache telemetry: hits skip fetch+decode entirely; misses
  // paid the full decode path.  Cumulative over the CPU's lifetime.
  std::uint64_t decode_hits() const { return decode_hits_; }
  std::uint64_t decode_misses() const { return decode_misses_; }

  // Block-engine telemetry.  A run_block() entry either hits a cached
  // block, builds one (then executes it), or falls back to step().
  std::uint64_t blocks_built() const { return blocks_built_; }
  std::uint64_t block_hits() const { return block_hits_; }
  std::uint64_t block_fallbacks() const { return block_fallbacks_; }
  std::uint64_t block_invalidations() const { return block_invalidations_; }
  // Instructions retired through blocks (avg executed block length =
  // block_ops / (block_hits + blocks_built)).
  std::uint64_t block_ops() const { return block_ops_; }
  // Chained-dispatch telemetry: block-to-block transitions taken
  // inside a single run_block dispatch, link follows that failed
  // validation (severed by invalidation, slot reuse, or a retargeted
  // indirect branch), and total micro-ops across built blocks (avg
  // built trace length = trace_len / blocks_built).
  std::uint64_t chain_follows() const { return chain_follows_; }
  std::uint64_t chain_breaks() const { return chain_breaks_; }
  std::uint64_t trace_len() const { return trace_len_; }
  // Fused-group telemetry: groups run through their fused handler,
  // and group heads reached whose ops ran one by one instead (budget,
  // stop latch, a data access that was not a permitted in-page TLB
  // hit, or a push onto the group's code page).  Both count groups,
  // not instructions.
  std::uint64_t fused_groups() const { return fused_groups_; }
  std::uint64_t fused_declines() const { return fused_declines_; }

  // Virtual-memory accessors for the host (debugger/loader view).
  // They use the current privilege translation but never trap; failures
  // return false.
  bool peek32(std::uint32_t vaddr, std::uint32_t& value);
  bool peek8(std::uint32_t vaddr, std::uint8_t& value);

 private:
  // The opcode handlers live in cpu.cc.  step() dispatches through the
  // generic per-opcode table (`execute`); trace micro-ops call the
  // handler build_block stored in them (select_handler).
  friend struct OpHandlers;
  // Test access to the data path: the unit suite runs the inline and
  // the out-of-line accessors side by side (tests/vm/dtlb_test.cc).
  friend struct CpuDataPath;
  // Test access to the handler tables: the unit suite runs every
  // specialized handler against the generic one (tests/vm/op_form_test.cc).
  friend struct CpuOpForms;
  using HandlerFn = bool (*)(Cpu&, const isa::Instruction&);
  struct MicroOp;
  // A fused group's handler, called with the group's first micro-op.
  // Runs the whole group and returns true, or declines with no effect
  // and returns false (the ops then run one by one).
  using FusedFn = bool (*)(Cpu&, const MicroOp*);

  // The handler step() runs for `op`: one generic function per opcode
  // that switches on the operand kinds at run time.
  static HandlerFn generic_handler(isa::Op op);
  // The handler a trace micro-op runs: a specialization for the hot
  // operand forms (mov, push/pop, add/and/sub/cmp/test on registers,
  // setcc r8, movzx r<-r8, mov to and from memory), else
  // generic_handler(in.op).  Both compute identical results.
  static HandlerFn select_handler(const isa::Instruction& in);

  // Raises a trap against the current instruction (eip_ points at it).
  // Returns false if delivery escalated into a dead CPU.
  bool raise(isa::Trap trap, std::uint32_t error_code, std::uint32_t addr);
  bool deliver(isa::Trap trap, std::uint32_t error_code, std::uint32_t addr,
               int depth);

  // Guest memory access; on failure raises #PF/#GP and returns false.
  // Shared by every engine (they all execute through OpHandlers).  The
  // inline part takes only an access that Mmu::probe proves is a
  // permitted TLB hit and that stays inside one page: exactly the case
  // in which translate() would return the same frame with no side
  // effect, so skipping it leaves TLB fills, Mmu::epoch() and cycles
  // untouched.  Stores still go through PhysicalMemory (page versions
  // bump, SMC stays coherent).  Everything else — TLB
  // misses and fills, protection faults, MMIO, page-crossing words —
  // takes the out-of-line *_slow path.
  bool read_v(std::uint32_t vaddr, std::uint32_t size, std::uint32_t& value) {
    std::uint32_t paddr = 0;
    if (mmu_.probe(vaddr, Access::Read, cpl_, paddr) &&
        (size == 1 || (vaddr & kPageMask) <= kPageSize - 4)) {
      value = size == 1 ? memory_.read8(paddr) : memory_.read32(paddr);
      return true;
    }
    return read_v_slow(vaddr, size, value);
  }
  bool write_v(std::uint32_t vaddr, std::uint32_t size, std::uint32_t value) {
    std::uint32_t paddr = 0;
    if (mmu_.probe(vaddr, Access::Write, cpl_, paddr) &&
        (size == 1 || (vaddr & kPageMask) <= kPageSize - 4)) {
      if (size == 1) {
        memory_.write8(paddr, static_cast<std::uint8_t>(value));
      } else {
        memory_.write32(paddr, value);
      }
      return true;
    }
    return write_v_slow(vaddr, size, value);
  }
  bool read_v_slow(std::uint32_t vaddr, std::uint32_t size,
                   std::uint32_t& value);
  bool write_v_slow(std::uint32_t vaddr, std::uint32_t size,
                    std::uint32_t value);
  bool push32(std::uint32_t value);
  bool pop32(std::uint32_t& value);

  // Operand helpers.  Reg, Imm and Mem operands are resolved inline;
  // Reg8, Mem8 and None go through the out-of-line *_slow helpers.
  bool operand_addr(const isa::Operand& op, std::uint32_t& addr) const {
    addr = static_cast<std::uint32_t>(op.mem.disp);
    if (op.mem.has_base) addr += regs_[static_cast<int>(op.mem.base)];
    return true;
  }
  bool read_operand(const isa::Operand& op, std::uint32_t& value) {
    switch (op.kind) {
      case isa::OperandKind::Reg:
        value = regs_[static_cast<int>(op.reg)];
        return true;
      case isa::OperandKind::Imm:
        value = static_cast<std::uint32_t>(op.imm);
        return true;
      case isa::OperandKind::Mem: {
        std::uint32_t addr = 0;
        operand_addr(op, addr);
        return read_v(addr, 4, value);
      }
      default:
        return read_operand_slow(op, value);
    }
  }
  bool write_operand(const isa::Operand& op, std::uint32_t value) {
    switch (op.kind) {
      case isa::OperandKind::Reg:
        regs_[static_cast<int>(op.reg)] = value;
        return true;
      case isa::OperandKind::Mem: {
        std::uint32_t addr = 0;
        operand_addr(op, addr);
        return write_v(addr, 4, value);
      }
      default:
        return write_operand_slow(op, value);
    }
  }
  bool read_operand_slow(const isa::Operand& op, std::uint32_t& value);
  bool write_operand_slow(const isa::Operand& op, std::uint32_t value);

  void set_logic_flags32(std::uint32_t result);
  void set_logic_flags8(std::uint8_t result);

  bool execute(const isa::Instruction& instr);

  PhysicalMemory& memory_;
  Bus& bus_;
  Mmu mmu_;

  std::uint32_t regs_[isa::kRegCount] = {};
  std::uint32_t eip_ = 0;
  isa::Flags flags_;
  int cpl_ = 0;
  std::uint64_t cycles_ = 0;
  bool dead_ = false;
  bool halted_ = false;

  std::uint32_t vectors_[256] = {};

  struct DebugReg {
    bool enabled = false;
    std::uint32_t addr = 0;
  };
  DebugReg debug_[4];
  bool resume_flag_ = false;  // suppress re-trigger after a breakpoint

  // Decode cache: direct-mapped on the instruction's physical address,
  // invalidated through PhysicalMemory's per-page write versions.
  // Only instructions that fit within one physical page are cached.
  struct DecodedSlot {
    std::uint32_t paddr = 0xFFFFFFFF;
    std::uint64_t version = 0;
    isa::Instruction instr;
  };
  static constexpr std::uint32_t kDecodeCacheSize = 16384;  // power of two
  std::vector<DecodedSlot> decode_cache_;
  std::uint64_t decode_hits_ = 0;
  std::uint64_t decode_misses_ = 0;

  // Trace cache: predecoded straight-line runs ("superblocks") ending
  // at a branch/trapping/privileged op, keyed direct-mapped on the
  // entry instruction's physical address.  Micro-ops live in one
  // contiguous array per block, so execution walks memory linearly
  // instead of re-probing the direct-mapped decode cache per step.
  // Blocks widen into traces across direct jmp and call (statically
  // known targets), so op addresses need not be contiguous — every op
  // carries its own vaddr.
  //
  // Two build-time marks place the exactness guards.  Within a trace,
  // eip_ equals the op's vaddr (only direct jmp/call widen it), so an
  // op on the previous op's virtual and physical page (`same_page`)
  // needs no fetch re-translation while Mmu::epoch() is unchanged: the
  // stepper's translate would be a side-effect-free hit on the same
  // frame.  Code-page versions move only through stores (MMU walks
  // and MMIO reads write nothing), so the version is re-checked at
  // trace entry, on a page change and after a `may_store` op; the
  // stop latch (an MMIO store) and halted_ (hlt) are tested only
  // after a `may_store` op.
  //
  // A group head (`fused_len` > 0) names the fused handler of itself
  // and the next fused_len - 1 ops, all on its code page.  run_block
  // calls it only when the whole group fits the remaining budget and
  // the stop latch is clear; the handler itself declines unless every
  // data access is a permitted in-page TLB hit (Mmu::probe) and its
  // store misses the group's code page.  A group that runs therefore
  // fills no TLB entry, moves no code-page version and cannot trap,
  // so Mmu::epoch() and the fetch identity of every op after the head
  // stay as verified for the head.
  struct MicroOp {
    HandlerFn fn = nullptr;      // select_handler(instr)
    FusedFn fused = nullptr;     // select_fused, on a group head only
    std::uint32_t vaddr = 0;     // instruction-start virtual address
    std::uint32_t paddr = 0;     // fetch identity: physical address...
    std::uint64_t version = 0;   // ...and code-page version at decode
    bool same_page = false;      // same vpage and frame as the previous op
    bool may_store = true;       // may write memory or MMIO, or halt
    std::uint8_t fused_len = 0;  // ops in the group this op heads
    isa::Instruction instr;
  };
  // The fused group starting at ops[0] of a trace with `n` ops left:
  // its handler, with `len` set to its op count, or nullptr.
  static FusedFn select_fused(const MicroOp* ops, std::size_t n,
                              std::uint8_t& len);
  // A monomorphic successor link: the last observed branch target and
  // the cache slot it resolved to.  Never trusted blind — every follow
  // re-validates the slot's entry identity and code-page version, so a
  // link severed by invalidation or overwritten by slot reuse fails
  // closed into an ordinary probe.
  struct ChainLink {
    std::uint32_t vaddr = 0;
    std::uint32_t index = kNoBlock;
  };
  struct Block {
    std::uint32_t entry_paddr = kNoBlock;
    std::uint32_t entry_vaddr = 0;  // alias guard: build-time entry eip
    std::uint32_t vmin = 0;         // op-vaddr range (breakpoint prefilter)
    std::uint32_t vmax = 0;
    ChainLink links[2];             // [0] taken/target, [1] fall-through
    std::vector<MicroOp> ops;
  };
  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFF;
  static constexpr std::uint32_t kBlockCacheSize = 4096;  // power of two
  // A trace may join several basic blocks; the cap lets a hot loop
  // body with direct calls stay in one trace.
  static constexpr std::size_t kMaxTraceOps = 64;

  static std::uint32_t block_index(std::uint32_t paddr) {
    return (paddr ^ (paddr >> 12)) & (kBlockCacheSize - 1);
  }

  // Decodes a block starting at eip_ (entry already translated to
  // `entry_paddr`), continuing across direct jmp/call into a widened
  // trace.  Pure lookahead: reads memory and page versions only, never
  // fills the TLB and reports nothing to a liveness recorder
  // (Mmu::peek).
  bool build_block(std::uint32_t entry_paddr, Block& blk);

  // run_block's dispatch loop; kRecord reports each op to the exec
  // observer and the liveness recorder and runs fused groups op by op.
  template <bool kRecord>
  std::size_t dispatch(std::uint64_t max_instructions, const bool* stop,
                       CpuEvent& event);

  // Cache probe + rebuild for the block entered at eip_ (translated to
  // `paddr`); returns nullptr when no block can be built here.
  Block* lookup_block(std::uint32_t paddr);

  // True when no armed debug register matches any instruction-start
  // address in the block (the stepper only triggers on exact starts).
  bool breakpoints_clear(const Block& blk) const;

  std::vector<Block> block_cache_;
  std::uint64_t blocks_built_ = 0;
  std::uint64_t block_hits_ = 0;
  std::uint64_t block_fallbacks_ = 0;
  std::uint64_t block_invalidations_ = 0;
  std::uint64_t block_ops_ = 0;
  std::uint64_t chain_follows_ = 0;
  std::uint64_t chain_breaks_ = 0;
  std::uint64_t trace_len_ = 0;
  std::uint64_t fused_groups_ = 0;
  std::uint64_t fused_declines_ = 0;

  TrapRecord last_trap_;

  kfi::trace::TraceBuffer* trace_sink_ = nullptr;

  // The golden capture pass's recorders (see set_liveness and
  // set_exec_observer).
  ByteLiveness* liveness_ = nullptr;
  ExecObserver* observer_ = nullptr;
  void note_read(std::uint32_t paddr, std::uint32_t size) {
    if (liveness_ != nullptr) liveness_->read(paddr, size);
  }
  // A data-path store; cpl-0 stores form campaign E's footprint.
  void note_write(std::uint32_t paddr, std::uint32_t size) {
    if (liveness_ == nullptr) return;
    if (cpl_ == 0) {
      liveness_->kernel_store(paddr, size);
    } else {
      liveness_->write(paddr, size);
    }
  }
};

}  // namespace kfi::vm
