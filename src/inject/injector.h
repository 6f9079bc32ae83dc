// The injection engine: executes single-bit instruction-stream error
// injections against the simulated machine and classifies the outcome
// (paper §5).
//
// Trigger-on-execution semantics exactly as in the paper: a debug
// register is armed on the target instruction's address; when the
// program counter matches, the bit is flipped in the instruction's
// binary, the cycle counter is started, and execution continues from
// the (now corrupted) instruction.  The error persists for the rest of
// the run; the machine is rebooted (snapshot-restored) between runs.
//
// An Injector owns mutable per-run state only: one Machine for every
// workload (pointed at the shared post-boot BootState of the workload
// it runs, never booted) plus its private checkpoint memos and
// counters.
// All golden artifacts live in the shared GoldenCache — several
// Injectors on different threads can borrow one cache and run
// concurrently, each bit-identical to a serial run of its share.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <memory>
#include <string>
#include <vector>

#include "disk/disk.h"
#include "inject/golden.h"
#include "inject/outcome.h"
#include "machine/machine.h"

namespace kfi::trace {
class TraceBuffer;
}

namespace kfi::inject {

// Execution counters of one Injector (Injector::stats()) or, summed
// over every worker Injector, of one campaign (CampaignRun::stats).  A
// reused Injector contributes only the delta it accrued during the
// campaign, so a campaign's stats are its own.
struct CampaignStats {
  std::uint64_t runs = 0;
  // Runs that resumed from a ladder checkpoint vs from the post-boot
  // snapshot.
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t checkpoint_misses = 0;
  // Runs whose post-trigger state was proven identical to a golden or
  // shadow rung and took that timeline's outcome without simulating
  // the remainder (shadow hits included).
  std::uint64_t reconverged = 0;
  // Triggers whose breakpoint exit dropped a timer tick (every fault
  // model); shadow ladders built, the cycles they took (inside
  // post_trigger_cycles), and runs that reconverged onto one.
  std::uint64_t ticks_dropped = 0;
  std::uint64_t shadow_builds = 0;
  std::uint64_t shadow_build_cycles = 0;
  std::uint64_t shadow_reconverged = 0;
  // Golden reconvergences (inside reconverged) at which the flipped
  // data byte still differed from the rung, dead there in the golden
  // run (DESIGN.md §7, layer 3).
  std::uint64_t dead_byte_reconverged = 0;
  // Cycles simulated before the trigger fired (the replay the ladder
  // shrinks from O(golden) to O(rung spacing)) and after it (inherent
  // fault simulation no restore scheme can skip), summed over all runs.
  std::uint64_t pre_trigger_cycles = 0;
  std::uint64_t post_trigger_cycles = 0;
  // Machines the injectors constructed (one per injector).
  std::uint64_t machines = 0;
  machine::PerfStats perf;
  // Drain telemetry (not part of += aggregation; set by
  // run_campaign).  A steal is a shard run by a thread other than
  // its owner, shard % threads_used.
  std::uint64_t shards = 0;
  std::uint64_t steals = 0;
  unsigned threads_used = 1;

  CampaignStats& operator+=(const CampaignStats& o);
  CampaignStats& operator-=(const CampaignStats& o);
};

// The fault-free continuation of a tick-dropped trigger (DESIGN.md
// §7): a non-resumable breakpoint exit discards an in-flight timer tick
// the golden run later delivers, so a register or data fault injected
// there can never reconverge onto a golden rung.  Its runs compare
// against this ladder instead.  Every dropped trigger that sees the
// same next_timer() shares one continuation, whichever trigger built
// it.
struct ShadowLadder {
  // The continuation's state at each ladder rung it stopped at (by
  // ladder index; compare-only captures, Machine::capture_state), up to its
  // end or to the rung where it reconverged onto the golden ladder.
  std::map<std::size_t, machine::Checkpoint> rungs;
  // Its end-of-run record, classified as if activated at cycle 0, and
  // the crash timing a DumpedCrash end is re-attributed from.
  InjectionResult end;
  machine::CrashInfo crash;
  // Trigger cycle of the run that built the ladder.
  std::uint64_t built_at = 0;
};

class Injector {
 public:
  // Standalone construction: builds a private GoldenCache.  `image`
  // selects the kernel build to inject into (default: the standard
  // build; pass &kernel::built_hardened_kernel() for the
  // assertion-hardened variant).
  explicit Injector(InjectorOptions options = {},
                    const kernel::KernelImage* image = nullptr);
  // Campaign construction: borrows a shared (possibly concurrently
  // used) cache; golden warm-up already done there is not repeated.
  explicit Injector(std::shared_ptr<GoldenCache> cache);
  ~Injector();

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  // The shared artifact cache (never null).
  const std::shared_ptr<GoldenCache>& cache() const { return cache_; }

  // Fault-free reference run for a workload (cached in the shared
  // GoldenCache; built on first request by whoever asks first).
  const GoldenRun& golden(const std::string& workload) {
    return cache_->workload(workload).golden;
  }

  // Executes one injection and classifies it.
  InjectionResult run_one(const InjectionSpec& spec);

  // First/last cycle at which the golden run executes each kernel
  // address.  `first` is the checkpoint-selection key (campaigns also
  // sort by it so runs resuming from the same rung are adjacent);
  // `last` bounds reconvergence fast-forward.  Since execution before
  // the flip is identical to the golden run, a target that is not a
  // key here can never activate — the injector classifies it as
  // NotActivated without running.
  const std::unordered_map<std::uint32_t, machine::TouchWindow>& first_touch(
      const std::string& workload) {
    return cache_->workload(workload).first_touch;
  }

  const InjectorOptions& options() const { return cache_->options(); }
  const kernel::KernelImage& image() const { return cache_->image(); }

  // This injector's lifetime-cumulative counters: its run counters,
  // the machines it built (one at most, whatever the number of
  // workloads it runs) and their substrate counters.  A campaign's
  // share is the difference of two readings.
  CampaignStats stats() const;
  // The shadow ladder this injector built for `workload`'s dropped
  // triggers at `next_timer`, or nullptr.
  const ShadowLadder* shadow(const std::string& workload,
                             std::uint64_t next_timer) const;
  // stats()'s cycle counters, read at every progress tick.
  std::uint64_t pre_trigger_cycles() const {
    return stats_.pre_trigger_cycles;
  }
  std::uint64_t post_trigger_cycles() const {
    return stats_.post_trigger_cycles;
  }
  // The substrate counters of the injector's machine (inside stats()).
  machine::PerfStats perf_stats() const;

  // The forensics trace buffer, or nullptr when
  // InjectorOptions::trace_capacity is 0.  run_one() clears it on
  // entry, so after a run it holds that injection's event window
  // (trigger, flip, traps, crash report).  Lifetime recorded/dropped
  // totals survive the clears and flow into perf_stats().
  trace::TraceBuffer* trace() const { return trace_.get(); }

 private:
  // This injector's mutable execution state for one workload: private
  // dirty-tracking memos for each shared ladder rung (sound across
  // workload switches: the machine's versions only grow), and the
  // workload's shadow ladders.
  struct WorkloadState {
    const WorkloadGolden* artifact = nullptr;
    std::vector<machine::CheckpointMemo> rung_memos;  // parallel to ladder
    // Built lazily, keyed by next_timer() at the dropped trigger.
    std::map<std::uint64_t, ShadowLadder> shadows;
  };

  // The workload's state, with the machine pointed at its BootState
  // (built on first use; a switch from another workload is one
  // adopt_boot, which campaign_order's grouping keeps rare).
  WorkloadState& state_for(const std::string& workload);

  // How a post-trigger state is compared with one golden rung.
  enum class RungCompare : std::uint8_t {
    Skip,    // no compare can pass: run through without stopping
    Full,    // the complete state
    Masked,  // all but the faulted RAM byte, which is dead there
  };
  // Where a post-trigger continuation ended: its final exit, or the
  // ladder rung at which it reconverged.
  struct Ending {
    enum class Onto : std::uint8_t { Nothing, Golden, Shadow };
    Onto onto = Onto::Nothing;
    std::size_t rung = 0;
    machine::RunResult run;
  };
  // Runs the machine from its current post-trigger state to
  // `deadline` in segments that stop at every ladder rung `plan` does
  // not skip.  At each stop the state is compared with the golden rung
  // as `plan` says (masking the RAM byte `masked`) and then in full
  // with `compare`'s rung, if it has one; `capture` instead records
  // every stop that matched neither.
  template <typename Plan>
  Ending run_out(WorkloadState& state, std::uint64_t deadline,
                 const Plan& plan, std::size_t masked,
                 const ShadowLadder* compare, ShadowLadder* capture);
  // Builds `shadow` from the fault-free, tick-dropped trigger state the
  // machine is stopped at, running it out to `deadline`.
  void build_shadow(WorkloadState& state, const GoldenRun& ref,
                    std::uint64_t deadline, ShadowLadder& shadow);

  // The latest ladder rung at or before cycle `at` — where a run whose
  // execution up to `at` is golden resumes — or ladder.size() when
  // none is (the run restores the post-boot state); counted as a
  // checkpoint hit or miss.
  std::size_t resume_rung(const std::vector<machine::Checkpoint>& ladder,
                          std::uint64_t at);

  // Trigger-at-instruction models (InstrBit / RegisterBit / DataBit):
  // arm a breakpoint on the target instruction, apply the model's fault
  // when it fires, then run out (with reconvergence fast-forward).
  InjectionResult run_triggered(const InjectionSpec& spec,
                                InjectionResult result);
  // Campaign F: overwrite EAX with -errno at the Nth successful golden
  // syscall exit and count the failure cascade that follows.
  InjectionResult run_syscall_errno(const InjectionSpec& spec,
                                    InjectionResult result);
  // Shared end-of-run classification: disk forensics, outcome switch on
  // the run exit, and the severity taxonomy.
  void classify(InjectionResult& result, const machine::RunResult& run,
                machine::Machine& machine, const GoldenRun& ref);

  std::shared_ptr<GoldenCache> cache_;
  std::unique_ptr<trace::TraceBuffer> trace_;
  std::map<std::string, std::unique_ptr<WorkloadState>> states_;
  // The one machine, and the state whose BootState it is pointed at.
  std::unique_ptr<machine::Machine> machine_;
  const WorkloadState* current_ = nullptr;
  // The run counters; machines and perf are filled in by stats().
  CampaignStats stats_;
};

}  // namespace kfi::inject
