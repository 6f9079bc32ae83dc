#include "machine/machine.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "fsutil/kfs.h"
#include "fsutil/kfs_format.h"
#include "support/strings.h"
#include "trace/trace.h"
#include "vm/hostmap.h"
#include "vm/layout.h"

namespace kfi::machine {

using kernel::KernelImage;

// Watchdog for the run from reset to the workload's entry breakpoint.
constexpr std::uint64_t kBootBudget = 4'000'000;

// ---------------------------------------------------------------------
// Devices
// ---------------------------------------------------------------------

class Machine::ConsoleDevice : public vm::Device {
 public:
  explicit ConsoleDevice(Machine& machine) : machine_(machine) {}
  std::uint32_t mmio_read(std::uint32_t) override { return 0; }
  void mmio_write(std::uint32_t offset, std::uint32_t value) override {
    if (offset == 0) {
      machine_.console_.push_back(static_cast<char>(value & 0xFF));
      // Guard against runaway printing under fault (console spam).
      if (machine_.console_.size() > 1 << 20) {
        machine_.console_.resize(1 << 20);
      }
    }
  }

 private:
  Machine& machine_;
};

class Machine::CrashDevice : public vm::Device {
 public:
  explicit CrashDevice(Machine& machine) : machine_(machine) {}
  std::uint32_t mmio_read(std::uint32_t) override { return 0; }
  void mmio_write(std::uint32_t offset, std::uint32_t value) override {
    switch (offset) {
      case 4: addr_ = value; break;
      case 8: eip_ = value; break;
      case 0: {
        if (machine_.crash_fired_) break;  // first report wins
        machine_.crash_fired_ = true;
        machine_.crash_.cause = value;
        machine_.crash_.fault_addr = addr_;
        machine_.crash_.eip = eip_;
        machine_.crash_.report_cycle = machine_.cpu_->cycles();
        machine_.crash_.trap_cycle = machine_.cpu_->last_trap().cycle;
        if (machine_.events_ != nullptr) {
          machine_.events_->record(trace::EventKind::CrashReport,
                                   machine_.cpu_->cycles(), value, addr_,
                                   eip_, 0);
        }
        break;
      }
      default: break;
    }
  }

 private:
  Machine& machine_;
  std::uint32_t addr_ = 0;
  std::uint32_t eip_ = 0;
};

class Machine::TlbDevice : public vm::Device {
 public:
  explicit TlbDevice(Machine& machine) : machine_(machine) {}
  std::uint32_t mmio_read(std::uint32_t) override { return 0; }
  void mmio_write(std::uint32_t offset, std::uint32_t value) override {
    switch (offset) {
      case kernel::TLB_FLUSH_PAGE:
        machine_.cpu_->mmu().flush_page(value);
        break;
      case kernel::TLB_FLUSH_ALL:
        machine_.cpu_->mmu().flush_tlb();
        break;
      case kernel::TLB_SET_CR3:
        machine_.cpu_->mmu().set_cr3(value);
        break;
      default:
        break;
    }
  }

 private:
  Machine& machine_;
};

// ---------------------------------------------------------------------
// Root disk
// ---------------------------------------------------------------------

std::optional<ExecEngine> parse_exec_engine(const char* value) {
  const std::string_view name = value == nullptr ? "" : value;
  if (name.empty() || name == "chained") return ExecEngine::Chained;
  if (name == "step") return ExecEngine::Step;
  return std::nullopt;
}

ExecEngine default_exec_engine() {
  const char* env = std::getenv("KFI_EXEC");
  const std::optional<ExecEngine> engine = parse_exec_engine(env);
  if (!engine) {
    std::fprintf(stderr,
                 "KFI_EXEC=%s is not an execution engine; use \"step\" or "
                 "\"chained\"\n",
                 env);
    std::exit(2);
  }
  return *engine;
}

std::uint64_t fnv1a_mix_bytes(std::uint64_t h, const void* data,
                              std::size_t len) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  // Mixing is inherently sequential (each byte folds into h), but
  // loading a word and unrolling the eight folds keeps the loop out of
  // byte-at-a-time load/branch territory; the value is identical to
  // the classic byte loop on any endianness because the bytes are
  // extracted in memory order.
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    h = (h ^ (w & 0xFF)) * kPrime;
    h = (h ^ ((w >> 8) & 0xFF)) * kPrime;
    h = (h ^ ((w >> 16) & 0xFF)) * kPrime;
    h = (h ^ ((w >> 24) & 0xFF)) * kPrime;
    h = (h ^ ((w >> 32) & 0xFF)) * kPrime;
    h = (h ^ ((w >> 40) & 0xFF)) * kPrime;
    h = (h ^ ((w >> 48) & 0xFF)) * kPrime;
    h = (h ^ (w >> 56)) * kPrime;
  }
  for (; i < len; ++i) h = (h ^ p[i]) * kPrime;
  return h;
}

std::string_view crash_code_name(std::uint32_t code) {
  switch (code) {
    case kernel::CRASH_NULL_POINTER:
      return "Unable to handle kernel NULL pointer dereference";
    case kernel::CRASH_PAGING_REQUEST:
      return "Unable to handle kernel paging request";
    case kernel::CRASH_INVALID_OPCODE: return "invalid opcode";
    case kernel::CRASH_GP_FAULT: return "general protection fault";
    case kernel::CRASH_DIVIDE: return "divide error";
    case kernel::CRASH_PANIC: return "Kernel panic";
    case kernel::CRASH_INT3: return "int3 trap";
    case kernel::CRASH_BOUNDS: return "bounds";
    case kernel::CRASH_INVALID_TSS: return "invalid TSS";
    case kernel::CRASH_STACK: return "stack exception";
    case kernel::CRASH_OVERFLOW: return "overflow";
    case kernel::CRASH_SEG_NOT_PRESENT: return "segment not present";
    case kernel::CRASH_OUT_OF_MEMORY: return "out of memory";
    case kernel::CRASH_DOUBLE_FAULT: return "double fault";
    case kernel::CRASH_CLEAN_SHUTDOWN: return "clean shutdown";
    default: return "unknown";
  }
}

disk::DiskImage make_root_disk() {
  disk::DiskImage image(fsutil::kDefaultBlocks);
  fsutil::mkfs(image);

  // System files whose integrity decides bootability (most-severe check).
  std::string init_bin = "\x7f" "ELF-init";
  for (int i = 0; i < 480; ++i) init_bin += format("init%04d", i);
  std::string libc_bin = "\x7f" "ELF-libc.so.6";
  for (int i = 0; i < 900; ++i) libc_bin += format("libc%04d", i);

  fsutil::add_dir(image, "/sbin");
  fsutil::add_dir(image, "/lib");
  fsutil::add_dir(image, "/lib/i686");
  fsutil::add_dir(image, "/etc");
  fsutil::add_dir(image, "/data");
  fsutil::add_dir(image, "/tmp");

  fsutil::add_file(image, "/sbin/init", init_bin);
  fsutil::add_file(image, "/lib/libc.so", libc_bin);
  fsutil::add_file(image, "/lib/i686/libc.so.6", libc_bin);
  fsutil::add_file(image, "/etc/passwd",
                   "root:x:0:0:root:/root:/bin/bash\n"
                   "bench:x:500:500:unixbench:/home/bench:/bin/sh\n");

  std::string seed;
  for (int i = 0; i < 3000; ++i) {
    seed.push_back(static_cast<char>('A' + (i * 7) % 26));
  }
  fsutil::add_file(image, "/data/seed.dat", seed);
  return image;
}

// ---------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------

Machine::Machine(const KernelImage& kernel_image,
                 const workloads::WorkloadImage& workload,
                 const disk::DiskImage& root_disk,
                 const MachineOptions& options)
    : kernel_image_(kernel_image), workload_(workload), options_(options) {
  memory_ = std::make_unique<vm::PhysicalMemory>(vm::kRamSize);
  bus_ = std::make_unique<vm::Bus>();
  cpu_ = std::make_unique<vm::Cpu>(*memory_, *bus_);
  disk_image_ = std::make_unique<disk::DiskImage>(root_disk);
  disk_device_ = std::make_unique<disk::DiskDevice>(*disk_image_, *memory_);
  console_device_ = std::make_unique<ConsoleDevice>(*this);
  crash_device_ = std::make_unique<CrashDevice>(*this);
  tlb_device_ = std::make_unique<TlbDevice>(*this);

  bus_->attach(vm::kConsoleMmio, vm::kPageSize, console_device_.get());
  bus_->attach(vm::kDiskMmio, vm::kPageSize, disk_device_.get());
  bus_->attach(vm::kCrashMmio, vm::kPageSize, crash_device_.get());
  bus_->attach(vm::kTlbMmio, vm::kPageSize, tlb_device_.get());

  load_images();
  install_vectors();
}

Machine::~Machine() = default;

void Machine::load_images() {
  for (const kernel::LoadSegment& segment : kernel_image_.segments) {
    memory_->write_block(vm::phys_of_virt(segment.base),
                         segment.bytes.data(),
                         static_cast<std::uint32_t>(segment.bytes.size()));
  }

  // Park the workload image below the page allocator's range; the
  // kernel maps it into the init task from boot info.
  const std::uint32_t text_phys = kernel::kWorkloadPhysBase;
  const std::uint32_t text_len =
      (static_cast<std::uint32_t>(workload_.text.size()) + vm::kPageMask) &
      ~vm::kPageMask;
  const std::uint32_t data_phys = text_phys + text_len;
  const std::uint32_t data_len =
      (static_cast<std::uint32_t>(workload_.data.size()) + vm::kPageMask) &
      ~vm::kPageMask;
  assert(text_len + data_len <= kernel::kWorkloadPhysSize);

  if (!workload_.text.empty()) {
    memory_->write_block(text_phys, workload_.text.data(),
                         static_cast<std::uint32_t>(workload_.text.size()));
  }
  if (!workload_.data.empty()) {
    memory_->write_block(data_phys, workload_.data.data(),
                         static_cast<std::uint32_t>(workload_.data.size()));
  }

  memory_->write32(vm::kBootInfoPhys + kernel::BI_ENTRY, workload_.entry);
  memory_->write32(vm::kBootInfoPhys + kernel::BI_TEXT_VADDR,
                   workload_.text_base);
  memory_->write32(vm::kBootInfoPhys + kernel::BI_TEXT_PHYS, text_phys);
  memory_->write32(vm::kBootInfoPhys + kernel::BI_TEXT_LEN, text_len);
  memory_->write32(vm::kBootInfoPhys + kernel::BI_DATA_VADDR,
                   workload_.data_base);
  memory_->write32(vm::kBootInfoPhys + kernel::BI_DATA_PHYS, data_phys);
  memory_->write32(vm::kBootInfoPhys + kernel::BI_DATA_LEN, data_len);

  // Boot page tables: kernel straight map (done by "firmware").
  vm::HostMapper mapper(*memory_, vm::kBootPgdPhys, vm::kKernelPtePhys);
  mapper.map_range(vm::kKernelBase, 0, vm::kRamSize, vm::kPteWrite);
  assert(mapper.cursor() <= vm::kBootPteEnd);
  cpu_->mmu().set_cr3(vm::kBootPgdPhys);

  memory_->write32(vm::kTssPhys, vm::kBootStackTop);

  cpu_->set_eip(kernel_image_.symbol("start_kernel"));
  cpu_->set_reg(isa::Reg::Esp, vm::kBootStackTop);
  cpu_->set_cpl(0);
  cpu_->flags().intf = false;
}

void Machine::install_vectors() {
  const auto set = [this](int vector, const char* symbol) {
    const std::uint32_t addr = kernel_image_.symbol(symbol);
    assert(addr != 0);
    cpu_->set_vector(vector, addr);
  };
  set(0, "divide_error_entry");
  set(3, "int3_entry");
  set(4, "overflow_entry");
  set(5, "bounds_entry");
  set(6, "invalid_op_entry");
  set(10, "invalid_tss_entry");
  set(11, "segment_not_present_entry");
  set(12, "stack_segment_entry");
  set(13, "general_protection_entry");
  set(14, "page_fault_entry");
  set(0x20, "timer_interrupt");
  set(0x80, "system_call");
  // Vector 8 (double fault) stays empty: a fault during delivery kills
  // the CPU, which the watchdog classifies as Hang/Unknown.
}

bool Machine::run_to_entry() {
  cpu_->arm_breakpoint(3, workload_.entry);
  const RunResult result = run(kBootBudget);
  cpu_->disarm_breakpoint(3);
  return result.exit == RunExit::Breakpoint;
}

bool Machine::boot(std::shared_ptr<const BaseImage> base) {
  if (!run_to_entry()) return false;

  if (base == nullptr) {
    auto own = std::make_shared<BaseImage>();
    own->mem = memory_->snapshot_pages();
    own->disk = disk_image_->snapshot_blocks();
    base = std::move(own);
    // The arrays are the base image at their current versions.
    base_memo_.mem = memory_->page_versions();
    base_memo_.disk = disk_image_->block_versions();
  } else {
    // Nothing here is known equal to a foreign base: compare it all.
    base_memo_ = {};
  }
  auto boot = std::make_shared<BootState>();
  // Every run starts from the reset timer phase: the next tick one
  // period out, none pending, not halted.
  boot->state = capture(*base, false);
  boot->state.next_timer = boot->state.cycle + options_.timer_period;
  boot->state.halted = false;
  boot->base = std::move(base);
  boot_ = std::move(boot);
  // At capture time every page/block trivially equals the BootState, so
  // the first restore() is already O(dirty).
  boot_memo_.mem = memory_->page_versions();
  boot_memo_.disk = disk_image_->block_versions();
  booted_ = true;
  return true;
}

void Machine::adopt_boot(std::shared_ptr<const BootState> boot) {
  assert(boot != nullptr && boot->base != nullptr);
  assert(boot->state.mem.size() == memory_->size());
  assert(boot->state.disk.size() == disk_image_->bytes().size());
  // The base memos stay sound for as long as the base does; a memo for
  // another BootState's delta proves nothing about this one.  A machine
  // that never booted knows nothing, so its first restore copies it all.
  if (boot_ == nullptr || boot_->base != boot->base) base_memo_ = {};
  if (boot_ != boot) boot_memo_ = {};
  boot_ = std::move(boot);
  booted_ = true;
  load_state(boot_->state, boot_memo_);
}

void Machine::restore() {
  assert(booted_);
  if (events_ != nullptr) {
    events_->record(trace::EventKind::SnapshotRestore, cpu_->cycles(),
                    static_cast<std::uint32_t>(boot_->state.cycle));
  }
  load_state(boot_->state, boot_memo_);
}

Checkpoint Machine::capture(const BaseImage& base, bool timer_pending) {
  Checkpoint ck;
  ck.cycle = cpu_->cycles();
  ck.console = console_;
  for (int i = 0; i < 8; ++i) {
    ck.regs[i] = cpu_->reg(static_cast<isa::Reg>(i));
  }
  ck.eip = cpu_->eip();
  ck.flags = cpu_->flags().to_word();
  ck.cpl = cpu_->cpl();
  ck.cr3 = cpu_->mmu().cr3();
  ck.next_timer = next_timer_;
  ck.timer_pending = timer_pending;
  ck.halted = cpu_->halted();
  ck.mem = memory_->snapshot_delta(base.mem, base_memo_.mem);
  ck.disk = disk_image_->snapshot_delta(base.disk, base_memo_.disk);
  return ck;
}

Checkpoint Machine::capture_state() {
  assert(booted_);
  // Deltas against the base image, so a rung also stores the pages
  // where this workload's boot differs from the base's.
  return capture(*boot_->base, timer_pending_resume_);
}

RunResult Machine::capture_ladder(const std::vector<std::uint64_t>& at,
                                  std::uint64_t max_cycles,
                                  std::vector<Checkpoint>& ladder) {
  assert(booted_);
  ladder.clear();
  restore();
  const std::uint64_t deadline = cpu_->cycles() + max_cycles;
  for (const std::uint64_t cycle : at) {
    // The stop of the last rung already reached this cycle.
    if (!ladder.empty() && ladder.back().cycle >= cycle) continue;
    if (cpu_->cycles() < cycle) {
      const RunResult segment =
          run(cycle - cpu_->cycles(), /*resumable=*/true);
      if (segment.exit != RunExit::Hung || cpu_->cycles() < cycle) {
        return segment;
      }
    }
    if (cpu_->cycles() >= deadline) break;
    ladder.push_back(capture_state());
    if (liveness_ != nullptr) liveness_->rung();
  }
  return run(cpu_->cycles() < deadline ? deadline - cpu_->cycles() : 0);
}

void Machine::restore_checkpoint(const Checkpoint& checkpoint,
                                 CheckpointMemo& memo) {
  assert(booted_);
  if (events_ != nullptr) {
    events_->record(trace::EventKind::CheckpointRestore, cpu_->cycles(),
                    static_cast<std::uint32_t>(checkpoint.cycle),
                    static_cast<std::uint32_t>(checkpoint.cycle >> 32),
                    checkpoint.eip, 0);
  }
  load_state(checkpoint, memo);
  ++checkpoint_restores_;
}

void Machine::load_state(const Checkpoint& state, CheckpointMemo& memo) {
  // The state's deltas must resolve through this machine's own base
  // image — the contract that makes shared checkpoints sound for every
  // machine on that base.
  assert(state.mem.base() == &boot_->base->mem);
  assert(state.disk.base() == &boot_->base->disk);
  // Restoring the deltas alone rebuilds the full state: chunks the
  // state did not store resolve through the base image, and this
  // machine's base memo lets those be skipped when already in place —
  // copying only chunks that diverged since this machine last restored
  // the state.
  memory_->restore_pages(state.mem, memo.mem, &base_memo_.mem);
  disk_blocks_restored_ +=
      disk_image_->restore_blocks(state.disk, memo.disk, &base_memo_.disk);
  for (int i = 0; i < 8; ++i) {
    cpu_->set_reg(static_cast<isa::Reg>(i), state.regs[i]);
  }
  cpu_->set_eip(state.eip);
  cpu_->flags() = isa::Flags::from_word(state.flags);
  cpu_->set_cpl(state.cpl);
  cpu_->mmu().set_cr3(state.cr3);  // also flushes the TLB
  cpu_->set_cycles(state.cycle);
  cpu_->reset_fault_state();
  cpu_->set_halted(state.halted);
  crash_fired_ = false;
  crash_ = CrashInfo{};
  console_ = state.console;
  next_timer_ = state.next_timer;
  timer_pending_resume_ = state.timer_pending;
}

PerfStats Machine::perf_stats() const {
  PerfStats stats;
  stats.decode_hits = cpu_->decode_hits();
  stats.decode_misses = cpu_->decode_misses();
  stats.restores = memory_->restore_calls();
  stats.pages_restored = memory_->restored_pages();
  stats.bytes_restored = memory_->restored_bytes();
  stats.disk_blocks_restored = disk_blocks_restored_;
  stats.checkpoint_restores = checkpoint_restores_;
  stats.block_builds = cpu_->blocks_built();
  stats.block_hits = cpu_->block_hits();
  stats.block_fallbacks = cpu_->block_fallbacks();
  stats.block_invalidations = cpu_->block_invalidations();
  stats.block_ops = cpu_->block_ops();
  stats.chain_follows = cpu_->chain_follows();
  stats.chain_breaks = cpu_->chain_breaks();
  stats.trace_len = cpu_->trace_len();
  stats.fused_groups = cpu_->fused_groups();
  stats.fused_declines = cpu_->fused_declines();
  return stats;
}

std::uint64_t Machine::state_digest() const {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix_byte = [&h](std::uint8_t byte) {
    h = (h ^ byte) * 1099511628211ULL;
  };
  const auto mix_u32 = [&mix_byte](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  const auto mix_u64 = [&mix_byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  for (int i = 0; i < isa::kRegCount; ++i) {
    mix_u32(cpu_->reg(static_cast<isa::Reg>(i)));
  }
  mix_u32(cpu_->eip());
  mix_u32(cpu_->flags().to_word());
  mix_u32(static_cast<std::uint32_t>(cpu_->cpl()));
  mix_u32(cpu_->mmu().cr3());
  mix_u64(cpu_->cycles());
  h = fnv1a_mix_bytes(h, memory_->raw(0), memory_->size());
  h = fnv1a_mix_bytes(h, disk_image_->bytes().data(),
                      disk_image_->bytes().size());
  h = fnv1a_mix_bytes(h, console_.data(), console_.size());
  return h;
}

void Machine::set_liveness(vm::ByteLiveness* liveness) {
  liveness_ = liveness;
  cpu_->set_liveness(liveness);
  disk_device_->set_liveness(liveness);
}

void Machine::set_event_trace(trace::TraceBuffer* sink) {
  events_ = sink;
  cpu_->set_trace_sink(sink);
}

RunResult Machine::run(std::uint64_t max_cycles, bool resumable) {
  // The loop below has many exits; recording here keeps every one of
  // them paired with exactly one RunBegin/RunEnd.
  if (events_ != nullptr) {
    events_->record(trace::EventKind::RunBegin, cpu_->cycles(),
                    static_cast<std::uint32_t>(max_cycles),
                    static_cast<std::uint32_t>(max_cycles >> 32),
                    resumable ? 1u : 0u, 0);
  }
  const RunResult result = run_loop(max_cycles, resumable);
  if (events_ != nullptr) {
    events_->record(trace::EventKind::RunEnd, cpu_->cycles(),
                    static_cast<std::uint32_t>(result.exit),
                    result.exit == RunExit::Breakpoint
                        ? static_cast<std::uint32_t>(result.breakpoint_index)
                        : result.exit_code,
                    result.crash.eip, 0);
  }
  return result;
}

RunResult Machine::run_loop(std::uint64_t max_cycles, bool resumable) {
  RunResult result;
  const std::uint64_t deadline = cpu_->cycles() + max_cycles;
  if (next_timer_ == 0) next_timer_ = cpu_->cycles() + options_.timer_period;
  // A checkpoint restore re-enters the loop with the tick state the
  // capture saw; a plain restore()/boot() starts with none pending.
  bool timer_pending = timer_pending_resume_;
  timer_pending_resume_ = false;
  const bool block_engine = options_.exec_engine != ExecEngine::Step;

  while (cpu_->cycles() < deadline) {
    if (cpu_->cycles() >= next_timer_) {
      timer_pending = true;
      next_timer_ += options_.timer_period;
    }
    if (timer_pending && cpu_->deliver_interrupt(isa::Trap::Timer)) {
      timer_pending = false;
    }

    vm::CpuEvent event;
    bool stepped = true;
    // A pending-but-undelivered tick is compatible with block dispatch:
    // delivery was just attempted above, so pending here implies IF is
    // off, and the only instruction that can re-enable delivery (sti)
    // terminates every block — the delivering loop top lands exactly
    // where the stepper has it.
    if (block_engine && next_timer_ > cpu_->cycles()) {
      // Bound the block so the first loop top at or past any host
      // boundary (run deadline, timer arm) is reached exactly as the
      // stepper reaches it: no event can fire mid-block.
      std::uint64_t limit = deadline - cpu_->cycles();
      const std::uint64_t to_timer = next_timer_ - cpu_->cycles();
      if (to_timer < limit) limit = to_timer;
      stepped = cpu_->run_block(limit, &crash_fired_, event) == 0;
    }
    if (stepped) event = cpu_->step();

    if (crash_fired_) {
      if (crash_.cause == kernel::CRASH_CLEAN_SHUTDOWN) {
        result.exit = RunExit::Completed;
        result.exit_code = crash_.fault_addr;
      } else {
        result.exit = RunExit::Crashed;
        result.crash = crash_;
      }
      return result;
    }

    switch (event.kind) {
      case vm::CpuEventKind::Executed:
        break;
      case vm::CpuEventKind::Breakpoint:
        // A resumable caller continues past the breakpoint (campaign
        // F's segmented runs): keep the in-flight tick so the
        // segmented timeline stays bit-identical to an unsegmented run
        // even when the breakpoint fires with interrupts off.
        // Non-resumable exits keep the historical behavior (both pinned
        // digests depend on it) and report the drop: the injector
        // reconverges D/E runs that took it onto a shadow ladder of the
        // tick-dropped timeline instead of the golden one (DESIGN.md
        // §7).
        if (resumable) {
          timer_pending_resume_ = timer_pending;
        } else {
          result.tick_dropped = timer_pending;
        }
        result.exit = RunExit::Breakpoint;
        result.breakpoint_index = event.breakpoint_index;
        return result;
      case vm::CpuEventKind::Halted: {
        if (!cpu_->flags().intf) {
          // hlt with interrupts off: hard deadlock.
          result.exit = RunExit::Hung;
          return result;
        }
        // Fast-forward to the next timer tick.
        if (next_timer_ >= deadline) {
          // Idle time still passes while halted; otherwise short-budget
          // callers (the profiler) would spin without progress.
          cpu_->set_cycles(deadline);
          if (resumable) timer_pending_resume_ = timer_pending;
          result.exit = RunExit::Hung;
          return result;
        }
        cpu_->set_cycles(next_timer_);
        timer_pending = true;
        next_timer_ += options_.timer_period;
        if (timer_pending && cpu_->deliver_interrupt(isa::Trap::Timer)) {
          timer_pending = false;
        }
        break;
      }
      case vm::CpuEventKind::DoubleFault:
        result.exit = RunExit::CpuDead;
        return result;
    }
  }
  if (resumable) timer_pending_resume_ = timer_pending;
  result.exit = RunExit::Hung;
  return result;
}

bool Machine::state_matches(const Checkpoint& checkpoint,
                            const CheckpointMemo& memo,
                            std::size_t masked_phys) const {
  if (cpu_->cycles() != checkpoint.cycle) return false;
  for (int i = 0; i < 8; ++i) {
    if (cpu_->reg(static_cast<isa::Reg>(i)) != checkpoint.regs[i]) {
      return false;
    }
  }
  if (cpu_->eip() != checkpoint.eip) return false;
  if (cpu_->flags().to_word() != checkpoint.flags) return false;
  if (cpu_->cpl() != checkpoint.cpl) return false;
  if (cpu_->mmu().cr3() != checkpoint.cr3) return false;
  if (cpu_->halted() != checkpoint.halted) return false;
  if (next_timer_ != checkpoint.next_timer) return false;
  if (timer_pending_resume_ != checkpoint.timer_pending) return false;
  if (crash_fired_) return false;
  if (console_ != checkpoint.console) return false;
  if (!disk_image_->blocks_match(checkpoint.disk, memo.disk,
                                 &base_memo_.disk)) {
    return false;
  }
  return memory_->pages_match(checkpoint.mem, memo.mem, &base_memo_.mem,
                              masked_phys);
}

PerfStats& PerfStats::operator+=(const PerfStats& o) {
  decode_hits += o.decode_hits;
  decode_misses += o.decode_misses;
  restores += o.restores;
  pages_restored += o.pages_restored;
  bytes_restored += o.bytes_restored;
  disk_blocks_restored += o.disk_blocks_restored;
  checkpoint_restores += o.checkpoint_restores;
  block_builds += o.block_builds;
  block_hits += o.block_hits;
  block_fallbacks += o.block_fallbacks;
  block_invalidations += o.block_invalidations;
  block_ops += o.block_ops;
  chain_follows += o.chain_follows;
  chain_breaks += o.chain_breaks;
  trace_len += o.trace_len;
  fused_groups += o.fused_groups;
  fused_declines += o.fused_declines;
  trace_events += o.trace_events;
  trace_dropped += o.trace_dropped;
  return *this;
}

PerfStats& PerfStats::operator-=(const PerfStats& o) {
  decode_hits -= o.decode_hits;
  decode_misses -= o.decode_misses;
  restores -= o.restores;
  pages_restored -= o.pages_restored;
  bytes_restored -= o.bytes_restored;
  disk_blocks_restored -= o.disk_blocks_restored;
  checkpoint_restores -= o.checkpoint_restores;
  block_builds -= o.block_builds;
  block_hits -= o.block_hits;
  block_fallbacks -= o.block_fallbacks;
  block_invalidations -= o.block_invalidations;
  block_ops -= o.block_ops;
  chain_follows -= o.chain_follows;
  chain_breaks -= o.chain_breaks;
  trace_len -= o.trace_len;
  fused_groups -= o.fused_groups;
  fused_declines -= o.fused_declines;
  trace_events -= o.trace_events;
  trace_dropped -= o.trace_dropped;
  return *this;
}

}  // namespace kfi::machine
