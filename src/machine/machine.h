// The whole simulated machine: CPU + RAM + MMU + devices + kernel +
// workload + root disk, with boot, post-boot snapshot/restore ("reboot"),
// a cycle-budget watchdog, and the crash-handler back end.
//
// This is the substrate every injection run executes on; one Machine is
// reused across thousands of runs by restoring the post-boot snapshot.
#pragma once

#include <cstdint>
#include <string_view>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "disk/disk.h"
#include "kernel/build.h"
#include "kernel/koffsets.h"
#include "vm/bus.h"
#include "vm/cpu.h"
#include "vm/memory.h"
#include "workloads/workloads.h"

namespace kfi::trace {
class TraceBuffer;
}

namespace kfi::machine {

// What the kernel's crash handler reported through the crash port
// (LKCD-dump equivalent), plus the hardware trap record for latency.
struct CrashInfo {
  std::uint32_t cause = 0;       // kernel::CRASH_* code
  std::uint32_t fault_addr = 0;
  std::uint32_t eip = 0;         // faulting instruction (from the frame)
  std::uint64_t report_cycle = 0;  // when the crash port was written
  std::uint64_t trap_cycle = 0;    // when the hardware trap fired
};

enum class RunExit : std::uint8_t {
  Completed,   // init exited: clean shutdown, exit code in `exit_code`
  Crashed,     // kernel oops/panic: see `crash`
  Hung,        // watchdog: cycle budget exhausted or hard deadlock
  CpuDead,     // double/triple fault: no dump possible
  Breakpoint,  // a debug-register breakpoint fired (injection trigger)
};

struct RunResult {
  RunExit exit = RunExit::Hung;
  std::uint32_t exit_code = 0;
  CrashInfo crash;
  int breakpoint_index = -1;
  // A non-resumable Breakpoint exit discarded an in-flight timer tick
  // (fired, not yet deliverable): the run continues off the
  // uninterrupted timeline, which never drops it.
  bool tick_dropped = false;
};

// Which execution engine run() drives.  Step is the reference
// single-dispatch path and the semantic oracle.  Chained routes
// straight-line runs through the CPU's trace cache when no host event
// (timer tick, deadline, trace sink) can fire inside the dispatch:
// traces widen across direct jmp/call, patched block-to-block successor
// links are followed inside one dispatch, and proven-hit fetch
// translations are shortcut.  Both engines share the CPU's inline
// TLB-hit data path and are bit-identical for every run-visible
// outcome.
enum class ExecEngine : std::uint8_t { Step, Chained };

// Parses a KFI_EXEC value: "step" or "chained"; nullptr or empty means
// the chained engine.  Any other value yields std::nullopt.
std::optional<ExecEngine> parse_exec_engine(const char* value);

// Reads the KFI_EXEC environment variable once per call (see
// parse_exec_engine).  An unrecognised value prints an error naming the
// accepted values and exits the process with status 2, so a stale
// setting never silently selects an engine.  MachineOptions defaults
// from this so CI can drive the whole test suite through either engine
// without code changes.
ExecEngine default_exec_engine();

struct MachineOptions {
  std::uint32_t timer_period = kernel::kTimerPeriodCycles;
  ExecEngine exec_engine = default_exec_engine();
};

// The full RAM and disk image every Checkpoint of a process resolves
// through: one workload's post-boot image.  The post-boot states of all
// workloads differ only in the pages their images are parked in, so
// each stores just those pages against one shared base instead of a
// full copy apiece.  Immutable once captured and shared by shared_ptr;
// a BootState holds its base alive.
struct BaseImage {
  vm::ChunkedSnapshot mem;   // full RAM capture
  vm::ChunkedSnapshot disk;  // full disk capture
  // Owner of the bytes the snapshots view (a mapped base file), or null
  // when they own their payloads.
  std::shared_ptr<const void> keepalive;

  std::uint64_t storage_bytes() const {
    return mem.storage_bytes() + disk.storage_bytes();
  }
};

// The complete machine state at a cycle of a run, with RAM and disk
// stored as deltas against a BaseImage: the post-boot state of a
// BootState, or one rung of a golden-run checkpoint ladder.
// Checkpoints are immutable and shareable: any Machine whose
// boot_state() has that base can restore or compare against them,
// holding a private CheckpointMemo per checkpoint.  The base must
// outlive the Checkpoint (the deltas resolve through it).
struct Checkpoint {
  std::uint64_t cycle = 0;
  vm::ChunkedSnapshot mem;   // pages that differ from the base image
  vm::ChunkedSnapshot disk;  // blocks that differ from the base disk
  std::string console;
  std::uint32_t regs[8] = {};
  std::uint32_t eip = 0;
  std::uint32_t flags = 0;
  int cpl = 0;
  std::uint32_t cr3 = 0;
  std::uint64_t next_timer = 0;
  bool timer_pending = false;  // a tick fired but was not yet deliverable
  bool halted = false;         // captured while sitting in hlt

  std::uint64_t storage_bytes() const {
    return mem.storage_bytes() + disk.storage_bytes() + console.size();
  }
};

// The machine state at the first user-mode instruction of the workload
// — the "post-boot snapshot" every injection run restores to — and the
// base image its deltas resolve through.  `state` holds only the pages
// where this workload's boot differs from the base (every chunk
// compared), and its timer phase is the one a run starts from: the
// next tick one timer period out, none pending, not halted.
// Immutable once captured, so one BootState can be shared (by
// shared_ptr) between the machine that booted and any number of
// machines that adopt_boot() it: an adopted machine starts from the
// literal bytes of this state, which makes cross-machine identity hold
// by construction rather than by boot determinism.
struct BootState {
  std::shared_ptr<const BaseImage> base;
  Checkpoint state;
};

// A machine's private dirty-tracking state for one shared Checkpoint:
// which of its RAM pages / disk blocks are currently known identical to
// the rung (see vm/snapshot.h).  Starts empty (= no knowledge; the
// first restore copies the rung's full footprint) and converges as the
// machine keeps restoring the same rung — the locality the campaign
// drain's contiguous shards are designed to preserve.
struct CheckpointMemo {
  std::vector<std::uint64_t> mem;
  std::vector<std::uint64_t> disk;
};

// First and last cycle at which the golden run executed a kernel-text
// address.  `first` places checkpoint-ladder rungs (execution before
// the trigger is golden); `last` bounds reconvergence fast-forward (a
// rung past `last` can never re-execute the corrupted instruction).
struct TouchWindow {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};

// Cumulative substrate performance counters (telemetry only; nothing
// here feeds back into execution).
struct PerfStats {
  std::uint64_t decode_hits = 0;
  std::uint64_t decode_misses = 0;
  std::uint64_t restores = 0;         // snapshot/checkpoint restores
  std::uint64_t pages_restored = 0;   // RAM pages copied by restores
  std::uint64_t bytes_restored = 0;   // RAM bytes copied by restores
  std::uint64_t disk_blocks_restored = 0;
  std::uint64_t checkpoint_restores = 0;
  // Trace cache (all zero under ExecEngine::Step).
  std::uint64_t block_builds = 0;
  std::uint64_t block_hits = 0;
  std::uint64_t block_fallbacks = 0;
  std::uint64_t block_invalidations = 0;
  std::uint64_t block_ops = 0;  // instructions retired through blocks
  // Successor links followed inside one dispatch, link validations that
  // failed (severed or retargeted links), and micro-ops across built
  // traces.
  std::uint64_t chain_follows = 0;
  std::uint64_t chain_breaks = 0;
  std::uint64_t trace_len = 0;
  // Fused groups run in one dispatch, and group heads whose ops ran
  // one by one instead.
  std::uint64_t fused_groups = 0;
  std::uint64_t fused_declines = 0;
  // Forensics trace layer (all zero when no sink is attached).  Filled
  // at the Injector level from its per-worker TraceBuffer — a buffer is
  // shared by all of an injector's machines, so summing per-machine
  // would double-count.
  std::uint64_t trace_events = 0;   // events recorded (lifetime)
  std::uint64_t trace_dropped = 0;  // events lost to ring overwrite

  // Counter-wise sum/difference: campaign code aggregates per-worker
  // machines into one campaign-wide view (and subtracts a baseline to
  // isolate one campaign's share of a reused machine's counters).
  PerfStats& operator+=(const PerfStats& o);
  PerfStats& operator-=(const PerfStats& o);
};

// FNV-1a over `len` bytes starting from hash state `h`, mixed in byte
// order (identical value to the classic byte loop) but reading the
// buffer a word at a time.  state_digest() sits on this; exposed for
// the pinned-digest regression test.
std::uint64_t fnv1a_mix_bytes(std::uint64_t h, const void* data,
                              std::size_t len);

// Human-readable text for a kernel crash-port cause code, phrased as
// the kernel's oops messages are.
std::string_view crash_code_name(std::uint32_t code);

// Builds the default root-disk image (with /sbin/init, /lib/libc.so,
// /etc/passwd, /data/seed.dat, /tmp) the severity analysis expects.
disk::DiskImage make_root_disk();

class Machine {
 public:
  // The kernel image and the workload are loaded at construction for
  // boot() to start from.  A machine that only adopt_boot()s never
  // reads its construction-time workload image (adoption overwrites all
  // of RAM and disk), so one machine can serve every workload of a
  // kernel, disk and options: the injector keeps one per thread.
  Machine(const kernel::KernelImage& kernel_image,
          const workloads::WorkloadImage& workload,
          const disk::DiskImage& root_disk,
          const MachineOptions& options = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Runs from reset to the first user-mode instruction of the workload
  // (its entry breakpoint) and captures the BootState there, as a delta
  // against `base` (every chunk compared), at the timer phase every
  // restore() starts from.  With no base, this machine's own post-boot
  // image becomes the base and its BootState stores no chunk.  Returns
  // false if the kernel failed to boot.
  bool boot(std::shared_ptr<const BaseImage> base = nullptr);

  // boot()'s run alone: from reset to the workload's entry breakpoint,
  // capturing nothing, for a caller that never restores (the
  // profiler).  The machine is then in exactly the state boot()
  // captures, but has no boot_state().  Returns false if the kernel
  // failed to boot.
  bool run_to_entry();

  // Points this machine at `boot` — a BootState any Machine (same
  // kernel/disk/options) captured — and loads its state as restore()
  // does, without simulating boot at all: RAM, disk, registers, and
  // console come from the shared state, so the machine is bit-identical
  // to the capturer right after its restore() (and adoption records no
  // trace event).  Adopting another workload's BootState on the same
  // base costs what a restore() does: the pages the machine dirtied
  // plus the ones the new state stores.  This is how campaign workers
  // share one golden warm-up: the GoldenCache boots once per workload
  // and every worker adopts.
  void adopt_boot(std::shared_ptr<const BootState> boot);

  // The post-boot state this machine restores to (set by boot() or
  // adopt_boot(); null before either).  Shared checkpoints can be
  // restored only on machines whose boot_state() has their deltas'
  // base.
  const std::shared_ptr<const BootState>& boot_state() const { return boot_; }

  // Continues execution until an exit condition or `max_cycles` more
  // cycles elapse (the watchdog).  With `resumable`, a deadline exit
  // (RunExit::Hung at exactly the requested cycle) keeps any in-flight
  // timer tick pending for the next run() call, so running to cycle C
  // in several segments is bit-identical to one continuous run — the
  // default drops the tick, which short-budget pollers (the profiler)
  // and the committed replay artifacts depend on.  That deadline stop
  // is the one boundary every checkpoint rung is captured at
  // (capture_ladder, capture_state) and compared at (state_matches).
  // A deadline inside a halted idle stretch stops, still halted, at
  // exactly the deadline.
  RunResult run(std::uint64_t max_cycles, bool resumable = false);

  // Restores the post-boot snapshot and the pristine disk ("reboot"):
  // the same load as restore_checkpoint() of boot_state()->state, but
  // traced as a snapshot restore and not counted as a checkpoint
  // restore.
  void restore();

  // Replays the run from the post-boot snapshot — restore(), then
  // run(max_cycles) with no breakpoint armed — and replaces `ladder`
  // with a checkpoint at each cycle in `at` (ascending), taken the way
  // an injected run stops at a rung: a resumable run() to the cycle,
  // then capture_state(), then ByteLiveness::rung() on an attached
  // recorder.  A stop that already reached a later cycle in `at` takes
  // no second rung for it; cycles the run never reaches before it ends
  // or hits its deadline are skipped.  The last segment runs, not
  // resumable, to the deadline max_cycles past the post-boot cycle, so
  // the result is the one a single run(max_cycles) returns.  Resumable
  // segments follow the one deterministic timeline, so
  // restore_checkpoint() + run continues bit-for-bit as if the run had
  // executed from the post-boot snapshot.  Any booted or adopting
  // machine may capture, and any machine on the same base may restore.
  RunResult capture_ladder(const std::vector<std::uint64_t>& at,
                           std::uint64_t max_cycles,
                           std::vector<Checkpoint>& ladder);

  // Restores a mid-run checkpoint.  `memo` is this machine's private
  // dirty-tracking state for this rung (start it empty; pass the same
  // object on every restore of the same rung to keep repeat restores
  // proportional to what the intervening run dirtied; a memo stays
  // sound across adopt_boot() switches, since versions only grow).  The
  // checkpoint must resolve through this machine's base image.
  void restore_checkpoint(const Checkpoint& checkpoint, CheckpointMemo& memo);

  // True when the machine's complete run-visible state — registers,
  // flags, eip, cpl, cr3, cycle counter, halt state, timer phase,
  // console, RAM, and disk — is identical to `checkpoint`, except for
  // the single RAM byte at `masked_phys` (pass a value outside RAM to
  // compare everything).  `memo` is the same per-(machine, rung) object
  // restore_checkpoint() maintains; its equality knowledge lets the
  // comparison skip untouched pages.  Only meaningful at a segment
  // boundary: right after a resumable run() exited at its deadline,
  // where the in-flight tick sits in the resume slot exactly as
  // capture_state() recorded it at the same kind of stop.
  bool state_matches(const Checkpoint& checkpoint, const CheckpointMemo& memo,
                     std::size_t masked_phys) const;

  // Captures the current state as a checkpoint, at the same kind of
  // segment boundary state_matches() requires: RAM and disk as deltas
  // against the base image, filtered by this machine's own base memo.
  // Golden rungs (capture_ladder) and shadow rungs are both taken this
  // way.  Restore it, or compare against it with an empty
  // CheckpointMemo.
  Checkpoint capture_state();

  // Cycle at which the next timer tick fires.  Constant between two
  // points of one run exactly when no tick fired in between.
  std::uint64_t next_timer() const { return next_timer_; }

  vm::Cpu& cpu() { return *cpu_; }
  vm::PhysicalMemory& memory() { return *memory_; }
  disk::DiskImage& disk_image() { return *disk_image_; }
  const std::string& console_output() const { return console_; }

  // Cycle at which run() started relative to the boot snapshot.
  std::uint64_t snapshot_cycles() const {
    return boot_ ? boot_->state.cycle : 0;
  }

  // FNV-1a digest over the complete machine state: architectural
  // registers, flags, eip, cpl, cr3, cycle counter, every byte of RAM,
  // the disk image, and the console output.  Two machines that took the
  // same execution path from the same snapshot digest identically; any
  // divergence — a single RAM byte, one extra cycle — changes the
  // value.  kfi::check uses this for its bit-for-bit replay and
  // schedule-independence proofs.
  std::uint64_t state_digest() const;

  // When set, every RAM access of run() — CPU data, instruction fetch,
  // page-table walks and disk DMA — is reported to *liveness, and so is
  // every rung capture_ladder() takes (ByteLiveness::rung).
  // Observational only; both engines report identically (the golden
  // capture pass runs on the configured engine).  Pass nullptr to
  // disable.
  void set_liveness(vm::ByteLiveness* liveness);

  // Attaches the forensics event trace (nullptr = off, the default):
  // run begin/end, snapshot and checkpoint-rung restores, and the crash
  // report are recorded here, and the sink is forwarded to the CPU for
  // trap entry/exit, memory faults, and block-cache invalidations.
  // Strictly observational — every run-visible outcome (and the
  // campaign result digest) is bit-identical with tracing on or off.
  void set_event_trace(trace::TraceBuffer* sink);

  PerfStats perf_stats() const;

 private:
  class ConsoleDevice;
  class CrashDevice;
  class TlbDevice;

  void load_images();
  void install_vectors();

  const kernel::KernelImage& kernel_image_;
  const workloads::WorkloadImage& workload_;
  MachineOptions options_;

  std::unique_ptr<vm::PhysicalMemory> memory_;
  std::unique_ptr<vm::Bus> bus_;
  std::unique_ptr<vm::Cpu> cpu_;
  std::unique_ptr<disk::DiskImage> disk_image_;
  std::unique_ptr<disk::DiskDevice> disk_device_;
  std::unique_ptr<ConsoleDevice> console_device_;
  std::unique_ptr<CrashDevice> crash_device_;
  std::unique_ptr<TlbDevice> tlb_device_;

  std::string console_;

  // Crash-port state (latched by CrashDevice).
  bool crash_fired_ = false;
  CrashInfo crash_;

  // The one capture every checkpoint goes through — boot state, ladder
  // rung, shadow rung: the CPU, timer and console state, and RAM and
  // disk as deltas against `base` through base_memo_, which learns
  // every chunk found equal to the base.
  Checkpoint capture(const BaseImage& base, bool timer_pending);
  // The body of restore(), adopt_boot() and restore_checkpoint(): RAM
  // and disk through `memo` and the base memo, then registers, cycle
  // counter, halt state, console, crash latch and timer phase.
  void load_state(const Checkpoint& state, CheckpointMemo& memo);

  // Post-boot state: captured by boot() or shared in by adopt_boot().
  // The memos are this machine's dirty-tracking state (see
  // vm/snapshot.h) for the BootState's deltas and for its base image;
  // the base memo also serves every checkpoint on that base, and
  // survives adopting another BootState on it.
  bool booted_ = false;
  std::shared_ptr<const BootState> boot_;
  CheckpointMemo boot_memo_;
  CheckpointMemo base_memo_;

  std::uint64_t next_timer_ = 0;
  // A restored checkpoint's in-flight timer tick, consumed by the next
  // run() so it resumes with the captured loop state.
  bool timer_pending_resume_ = false;

  std::uint64_t disk_blocks_restored_ = 0;
  std::uint64_t checkpoint_restores_ = 0;

  vm::ByteLiveness* liveness_ = nullptr;
  trace::TraceBuffer* events_ = nullptr;

  RunResult run_loop(std::uint64_t max_cycles, bool resumable);
};

}  // namespace kfi::machine
