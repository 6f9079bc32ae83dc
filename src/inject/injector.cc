#include "inject/injector.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "fsutil/kfs.h"
#include "isa/disasm.h"
#include "isa/isa.h"
#include "trace/trace.h"
#include "vm/layout.h"

namespace kfi::inject {

CampaignStats& CampaignStats::operator+=(const CampaignStats& o) {
  runs += o.runs;
  checkpoint_hits += o.checkpoint_hits;
  checkpoint_misses += o.checkpoint_misses;
  reconverged += o.reconverged;
  ticks_dropped += o.ticks_dropped;
  shadow_builds += o.shadow_builds;
  shadow_build_cycles += o.shadow_build_cycles;
  shadow_reconverged += o.shadow_reconverged;
  dead_byte_reconverged += o.dead_byte_reconverged;
  pre_trigger_cycles += o.pre_trigger_cycles;
  post_trigger_cycles += o.post_trigger_cycles;
  machines += o.machines;
  perf += o.perf;
  return *this;
}

CampaignStats& CampaignStats::operator-=(const CampaignStats& o) {
  runs -= o.runs;
  checkpoint_hits -= o.checkpoint_hits;
  checkpoint_misses -= o.checkpoint_misses;
  reconverged -= o.reconverged;
  ticks_dropped -= o.ticks_dropped;
  shadow_builds -= o.shadow_builds;
  shadow_build_cycles -= o.shadow_build_cycles;
  shadow_reconverged -= o.shadow_reconverged;
  dead_byte_reconverged -= o.dead_byte_reconverged;
  pre_trigger_cycles -= o.pre_trigger_cycles;
  post_trigger_cycles -= o.post_trigger_cycles;
  machines -= o.machines;
  perf -= o.perf;
  return *this;
}

Injector::Injector(InjectorOptions options, const kernel::KernelImage* image)
    : Injector(std::make_shared<GoldenCache>(options, image)) {}

Injector::Injector(std::shared_ptr<GoldenCache> cache)
    : cache_(std::move(cache)) {
  if (cache_ == nullptr) {
    throw std::invalid_argument("injector: null golden cache");
  }
  if (cache_->options().trace_capacity > 0) {
    trace_ =
        std::make_unique<trace::TraceBuffer>(cache_->options().trace_capacity);
  }
}

Injector::~Injector() = default;

Injector::WorkloadState& Injector::state_for(const std::string& workload) {
  auto it = states_.find(workload);
  if (it == states_.end()) {
    // Build (or look up) the shared artifacts first — this is the only
    // golden warm-up in the whole campaign.
    const WorkloadGolden& artifact = cache_->workload(workload);
    auto state = std::make_unique<WorkloadState>();
    state->artifact = &artifact;
    state->rung_memos.resize(artifact.ladder.size());
    it = states_.emplace(workload, std::move(state)).first;
  }
  WorkloadState& state = *it->second;
  if (machine_ == nullptr) {
    machine::MachineOptions machine_options;
    machine_options.exec_engine = cache_->options().exec_engine;
    machine_ = std::make_unique<machine::Machine>(
        cache_->image(), workloads::built_workload(workload),
        cache_->root_disk(), machine_options);
    if (trace_ != nullptr) machine_->set_event_trace(trace_.get());
  }
  if (current_ != &state) {
    // The machine skips boot by adopting the shared BootState, which
    // makes it bit-identical to the builder machine by construction.
    machine_->adopt_boot(state.artifact->boot);
    current_ = &state;
  }
  return state;
}

CampaignStats Injector::stats() const {
  CampaignStats stats = stats_;
  stats.machines = machine_ != nullptr;
  stats.perf = perf_stats();
  return stats;
}

machine::PerfStats Injector::perf_stats() const {
  machine::PerfStats total;
  if (machine_ != nullptr) total = machine_->perf_stats();
  if (trace_ != nullptr) {
    total.trace_events = trace_->total_recorded();
    total.trace_dropped = trace_->total_dropped();
  }
  return total;
}

InjectionResult Injector::run_one(const InjectionSpec& spec) {
  if (const char* defect = spec_defect(spec)) {
    throw std::invalid_argument(std::string("injector: ") + defect);
  }
  InjectionResult result;
  result.spec = spec;
  ++stats_.runs;
  // A fresh per-injection window (lifetime totals survive the clear).
  if (trace_ != nullptr) trace_->clear();

  if (spec.model == FaultModel::SyscallErrno) {
    return run_syscall_errno(spec, std::move(result));
  }
  return run_triggered(spec, std::move(result));
}

namespace {

// RAM byte index that masks nothing out of a reconvergence compare.
constexpr std::size_t kNoMask = static_cast<std::size_t>(-1);

// A shadow rung records no dirty-tracking memo: only the machine's own
// base memo (inside state_matches) skips its comparisons.
const machine::CheckpointMemo kNoMemo;

// Copies an end-of-run disk verdict into a record.  A damaged disk
// also fixes the severity: the paper's "did not crash but could not
// reboot" observation, and the recovery path of a crash or hang.
void record_disk(InjectionResult& result, const DiskVerdict& disk) {
  result.bootable = disk.bootable;
  result.fs_damaged = disk.fs_damaged;
  result.repair_verified = disk.repair_verified;
  if (disk.fs_damaged) {
    result.severity = !disk.bootable || disk.fsck_unrepairable
                          ? Severity::MostSevere
                          : Severity::Severe;
  }
}

// The record of a run proven to replay the golden run's remainder.
void take_golden_outcome(InjectionResult& result, const GoldenRun& ref) {
  result.outcome = Outcome::NotManifested;
  record_disk(result, ref.disk);
}

// The fields of a DumpedCrash record that depend on the faulted spec
// and its activation, not only on how the run ended.
void attribute_crash(InjectionResult& result, const machine::CrashInfo& crash,
                     std::uint64_t start) {
  result.propagated = result.crash_subsystem != result.spec.subsystem;
  const std::uint64_t activation_abs = start + result.activation_cycle;
  if (crash.trap_cycle >= activation_abs) {
    result.latency_cycles = crash.trap_cycle - activation_abs;
  } else {
    result.latency_cycles = crash.report_cycle - activation_abs;
  }
}

}  // namespace

const ShadowLadder* Injector::shadow(const std::string& workload,
                                     std::uint64_t next_timer) const {
  const auto state = states_.find(workload);
  if (state == states_.end()) return nullptr;
  const auto it = state->second->shadows.find(next_timer);
  return it == state->second->shadows.end() ? nullptr : &it->second;
}

InjectionResult Injector::run_triggered(const InjectionSpec& spec,
                                        InjectionResult result) {
  const WorkloadGolden& artifact = cache_->workload(spec.workload);
  const GoldenRun& ref = artifact.golden;

  // Campaign E resolves its data-fault address up front: either the
  // spec pins a physical byte, or data_index samples the golden run's
  // written-data footprint (empty footprint = nothing to corrupt).
  std::uint32_t data_phys = 0;
  if (spec.model == FaultModel::DataBit) {
    if (spec.data_addr != 0) {
      data_phys = spec.data_addr;
    } else {
      const std::vector<std::uint32_t>& footprint = artifact.write_footprint;
      if (footprint.empty()) {
        result.outcome = Outcome::NotActivated;
        return result;
      }
      data_phys = footprint[spec.data_index % footprint.size()];
    }
    result.data_addr = data_phys;
  }

  // Coverage prune, sound for every trigger-at-instruction model:
  // nothing is modified before the trigger, so up to it the run replays
  // the golden run, and a site the golden run never executes can never
  // trigger.  The record is the one a full replay would produce (E's
  // data_addr is resolved above).
  const auto touched = artifact.first_touch.find(spec.instr_addr);
  if (touched == artifact.first_touch.end()) {
    result.outcome = Outcome::NotActivated;
    return result;
  }
  const machine::TouchWindow window = touched->second;
  WorkloadState& state = state_for(spec.workload);
  machine::Machine& machine = *machine_;
  const std::vector<machine::Checkpoint>& rungs = artifact.ladder;

  // Resume from the latest ladder checkpoint the target's first
  // execution still lies ahead of; fall back to the post-boot snapshot.
  // Execution up to the trigger is identical either way — the rung is a
  // state this exact run passes through — so only the replay cost
  // changes, never the result.
  const std::size_t rung_idx = resume_rung(rungs, window.first);

  const std::uint64_t budget = run_budget(ref.cycles);
  // Cycle/budget accounting stays anchored at the post-boot snapshot so
  // the watchdog deadline (and every derived latency) is bit-identical
  // to a straight-line run.
  const std::uint64_t start = machine.snapshot_cycles();
  std::uint64_t entry = 0;
  // Restores the resume point, arms the trigger and runs until the
  // target instruction is reached.
  const auto reach_trigger = [&] {
    if (rung_idx < rungs.size()) {
      machine.restore_checkpoint(rungs[rung_idx], state.rung_memos[rung_idx]);
    } else {
      machine.restore();
    }
    entry = machine.cpu().cycles();
    const std::uint64_t resumed = entry - start;
    machine.cpu().arm_breakpoint(0, spec.instr_addr);
    return machine.run(budget > resumed ? budget - resumed : 1);
  };
  machine::RunResult run = reach_trigger();
  stats_.pre_trigger_cycles += machine.cpu().cycles() - entry;
  if (run.exit != machine::RunExit::Breakpoint) {
    machine.cpu().disarm_breakpoint(0);
    result.outcome = Outcome::NotActivated;
    return result;
  }
  const std::uint64_t trigger_abs = machine.cpu().cycles();
  const std::uint64_t spent = trigger_abs - start;
  const std::uint64_t deadline =
      trigger_abs + (budget > spent ? budget - spent : 1);

  // The trigger dropped the in-flight tick, so a register or data fault
  // injected here can never reconverge onto the golden ladder: compare
  // against the shadow ladder of the tick-dropped timeline instead,
  // building it on first use.  The build runs untraced and then
  // replays back to this trigger, so the run's result and trace window
  // do not depend on whether it built the ladder or found it.
  const ShadowLadder* shadow = nullptr;
  if (run.tick_dropped) {
    ++stats_.ticks_dropped;
    if (spec.model != FaultModel::InstrBit) {
      const auto [it, fresh] = state.shadows.try_emplace(machine.next_timer());
      if (fresh) {
        machine.set_event_trace(nullptr);
        machine.cpu().disarm_breakpoint(0);
        it->second.built_at = trigger_abs;
        build_shadow(state, ref, deadline, it->second);
        std::uint64_t cycles = machine.cpu().cycles() - trigger_abs;
        run = reach_trigger();
        assert(run.exit == machine::RunExit::Breakpoint &&
               machine.cpu().cycles() == trigger_abs);
        cycles += machine.cpu().cycles() - entry;
        machine.set_event_trace(trace_.get());
        stats_.shadow_build_cycles += cycles;
        stats_.post_trigger_cycles += cycles;
      }
      shadow = &it->second;
    }
  }
  if (trace_ != nullptr) {
    trace_->record(trace::EventKind::InjectTrigger, trigger_abs,
                   spec.instr_addr);
  }

  // Apply the model's fault at the trigger point and resume.
  result.activation_cycle = trigger_abs - start;
  // The RAM byte the fault leaves different from the golden run: the
  // corrupted text byte, or the flipped data byte.  Register faults
  // leave none.
  std::size_t masked = kNoMask;
  switch (spec.model) {
    case FaultModel::InstrBit: {
      const std::uint32_t flip_phys =
          vm::phys_of_virt(spec.instr_addr) + spec.byte_index;
      masked = flip_phys;
      std::uint8_t before[16] = {};
      machine.memory().read_block(vm::phys_of_virt(spec.instr_addr), before,
                                  sizeof before);
      result.disasm_before =
          isa::disassemble_bytes(before, sizeof before, spec.instr_addr,
                                 nullptr);
      const std::uint8_t pristine = machine.memory().read8(flip_phys);
      const std::uint8_t corrupted =
          static_cast<std::uint8_t>(pristine ^ (1u << spec.bit_index));
      machine.memory().write8(flip_phys, corrupted);
      if (trace_ != nullptr) {
        trace_->record(
            trace::EventKind::InjectFlip, machine.cpu().cycles(),
            spec.instr_addr,
            static_cast<std::uint32_t>(spec.byte_index) << 8 | spec.bit_index,
            pristine, corrupted);
      }
      // Drop any cached superblock containing the corrupted page — and
      // with it every chain link into or out of those blocks (follows
      // re-validate entry identity, so severed links fail closed).  The
      // per-op version check would catch the stale code anyway; this
      // avoids the stale hit.
      machine.cpu().invalidate_blocks(flip_phys);
      std::uint8_t after[16] = {};
      machine.memory().read_block(vm::phys_of_virt(spec.instr_addr), after,
                                  sizeof after);
      result.disasm_after =
          isa::disassemble_bytes(after, sizeof after, spec.instr_addr,
                                 nullptr);
      break;
    }
    case FaultModel::RegisterBit: {
      if (spec.target_reg == kEflagsTarget) {
        const std::uint32_t before_word = machine.cpu().flags().to_word();
        const std::uint32_t after_word = before_word ^ (1u << spec.bit_index);
        machine.cpu().flags() = isa::Flags::from_word(after_word);
        if (trace_ != nullptr) {
          trace_->record(trace::EventKind::InjectFlip, machine.cpu().cycles(),
                         spec.instr_addr,
                         static_cast<std::uint32_t>(kEflagsTarget) << 8 |
                             spec.bit_index,
                         before_word, after_word);
        }
      } else {
        const isa::Reg reg = static_cast<isa::Reg>(spec.target_reg);
        const std::uint32_t before_val = machine.cpu().reg(reg);
        const std::uint32_t after_val = before_val ^ (1u << spec.bit_index);
        machine.cpu().set_reg(reg, after_val);
        if (trace_ != nullptr) {
          trace_->record(trace::EventKind::InjectFlip, machine.cpu().cycles(),
                         spec.instr_addr,
                         static_cast<std::uint32_t>(spec.target_reg) << 8 |
                             spec.bit_index,
                         before_val, after_val);
        }
      }
      break;
    }
    case FaultModel::DataBit: {
      masked = data_phys;
      const std::uint8_t pristine = machine.memory().read8(data_phys);
      const std::uint8_t corrupted =
          static_cast<std::uint8_t>(pristine ^ (1u << spec.bit_index));
      machine.memory().write8(data_phys, corrupted);
      // The flipped byte might back an already-compiled superblock (the
      // footprint cannot prove it is not text); invalidate defensively.
      machine.cpu().invalidate_blocks(data_phys);
      if (trace_ != nullptr) {
        trace_->record(trace::EventKind::InjectFlip, machine.cpu().cycles(),
                       data_phys, spec.bit_index, pristine, corrupted);
      }
      break;
    }
    case FaultModel::SyscallErrno:
      break;  // handled in run_syscall_errno
  }
  machine.cpu().disarm_breakpoint(0);

  // Post-trigger execution runs in segments that stop at upcoming
  // ladder rungs and test for reconvergence: if the machine state is
  // bit-identical to the golden run's state at that cycle — every
  // register, RAM page, disk block, console byte, and the timer phase —
  // apart from the faulted byte where the golden run proves it dead,
  // then the remainder of the run can only replay the golden timeline.
  // The golden outcome is taken without simulating it; a shadow rung
  // match takes the shadow's outcome the same way.  A run that never
  // reconverges (or has no safe rung ahead) executes to its watchdog
  // deadline exactly as a single continuous run would — segment
  // boundaries preserve the in-flight timer tick, so the timeline is
  // bit-identical either way.
  //
  // Dead means the golden run's next access to the byte is a write, or
  // there is none.  For the corrupted text byte that holds past its
  // instruction's last golden execution; before it, no compare can
  // pass, so those rungs are skipped.  For the flipped data byte the
  // golden capture pass recorded it per rung; at a rung where the byte
  // is live a full compare can still pass (the run wrote it back).
  // Register faults always compare the full state.
  const auto plan = [&](std::size_t rung) {
    switch (spec.model) {
      case FaultModel::InstrBit:
        return rungs[rung].cycle > window.last ? RungCompare::Masked
                                               : RungCompare::Skip;
      case FaultModel::DataBit:
        return artifact.dead_at(data_phys, rung) ? RungCompare::Masked
                                                 : RungCompare::Full;
      default:
        return RungCompare::Full;
    }
  };
  const Ending ending = run_out(state, deadline, plan, masked, shadow, nullptr);
  stats_.post_trigger_cycles += machine.cpu().cycles() - trigger_abs;
  if (ending.onto == Ending::Onto::Nothing) {
    classify(result, ending.run, machine, ref);
    return result;
  }
  ++stats_.reconverged;
  const bool onto_shadow = ending.onto == Ending::Onto::Shadow;
  if (trace_ != nullptr) {
    trace_->record(trace::EventKind::Reconverged, machine.cpu().cycles(),
                   static_cast<std::uint32_t>(ending.rung),
                   onto_shadow ? 1u : 0u);
  }
  if (!onto_shadow) {
    if (spec.model == FaultModel::DataBit) {
      const vm::ChunkedSnapshot& mem = rungs[ending.rung].mem;
      const std::uint8_t golden_byte =
          mem.chunk(data_phys / mem.chunk_size())[data_phys % mem.chunk_size()];
      if (machine.memory().read8(data_phys) != golden_byte) {
        ++stats_.dead_byte_reconverged;
      }
    }
    take_golden_outcome(result, ref);
    return result;
  }
  ++stats_.shadow_reconverged;
  const InjectionResult& end = shadow->end;
  result.outcome = end.outcome;
  result.cause = end.cause;
  result.crash_eip = end.crash_eip;
  result.crash_addr = end.crash_addr;
  result.crash_subsystem = end.crash_subsystem;
  result.severity = end.severity;
  result.fs_damaged = end.fs_damaged;
  result.bootable = end.bootable;
  result.repair_verified = end.repair_verified;
  if (result.outcome == Outcome::DumpedCrash) {
    attribute_crash(result, shadow->crash, start);
  }
  return result;
}

template <typename Plan>
Injector::Ending Injector::run_out(WorkloadState& state,
                                   std::uint64_t deadline, const Plan& plan,
                                   std::size_t masked,
                                   const ShadowLadder* compare,
                                   ShadowLadder* capture) {
  machine::Machine& machine = *machine_;
  const std::vector<machine::Checkpoint>& rungs = state.artifact->ladder;
  Ending ending;
  std::size_t idx = 0;
  for (;;) {
    RungCompare how = RungCompare::Skip;
    while (idx < rungs.size() &&
           (rungs[idx].cycle <= machine.cpu().cycles() ||
            (how = plan(idx)) == RungCompare::Skip)) {
      ++idx;
    }
    if (idx >= rungs.size() || rungs[idx].cycle >= deadline) break;
    const machine::Checkpoint& ck = rungs[idx];
    ending.run =
        machine.run(ck.cycle - machine.cpu().cycles(), /*resumable=*/true);
    if (ending.run.exit != machine::RunExit::Hung ||
        machine.cpu().cycles() < ck.cycle) {
      // Completed, crashed, died, or deadlocked inside the segment:
      // the run is over, classified by the caller as usual.
      return ending;
    }
    ending.rung = idx;
    if (machine.state_matches(ck, state.rung_memos[idx],
                              how == RungCompare::Masked ? masked : kNoMask)) {
      ending.onto = Ending::Onto::Golden;
      return ending;
    }
    if (compare != nullptr) {
      const auto it = compare->rungs.find(idx);
      if (it != compare->rungs.end() &&
          machine.state_matches(it->second, kNoMemo, kNoMask)) {
        ending.onto = Ending::Onto::Shadow;
        return ending;
      }
    }
    if (capture != nullptr) {
      capture->rungs.emplace(idx, machine.capture_state());
    }
    ++idx;
  }
  ending.run = machine.run(deadline - machine.cpu().cycles());
  return ending;
}

void Injector::build_shadow(WorkloadState& state, const GoldenRun& ref,
                            std::uint64_t deadline, ShadowLadder& shadow) {
  ++stats_.shadow_builds;
  const Ending ending =
      run_out(state, deadline, [](std::size_t) { return RungCompare::Full; },
              kNoMask, nullptr, &shadow);
  if (ending.onto == Ending::Onto::Golden) {
    // The tick-dropped timeline itself rejoined the golden one, so the
    // rungs past this one are golden rungs, compared first anyway.
    take_golden_outcome(shadow.end, ref);
    return;
  }
  classify(shadow.end, ending.run, *machine_, ref);
  shadow.crash = ending.run.crash;
}

void Injector::classify(InjectionResult& result, const machine::RunResult& run,
                        machine::Machine& machine, const GoldenRun& ref) {
  const std::uint64_t start = machine.snapshot_cycles();

  // Post-run disk state (before the next restore wipes it).
  record_disk(result, cache_->judge_disk(machine.disk_image()));
  const std::uint64_t digest = fsutil::tree_digest(machine.disk_image());

  switch (run.exit) {
    case machine::RunExit::Completed: {
      const bool matches = machine.console_output() == ref.console &&
                           run.exit_code == ref.exit_code &&
                           digest == ref.fs_digest;
      result.outcome = matches ? Outcome::NotManifested
                               : Outcome::FailSilenceViolation;
      break;
    }
    case machine::RunExit::Crashed: {
      result.outcome = Outcome::DumpedCrash;
      result.cause = crash_cause_from_code(run.crash.cause);
      result.crash_eip = run.crash.eip;
      result.crash_addr = run.crash.fault_addr;
      result.crash_subsystem = kernel::subsystem_of_addr(run.crash.eip);
      attribute_crash(result, run.crash, start);
      break;
    }
    case machine::RunExit::Hung:
    case machine::RunExit::CpuDead:
      result.outcome = Outcome::HangUnknown;
      break;
    case machine::RunExit::Breakpoint:
      // Cannot happen: the breakpoint is disarmed.
      result.outcome = Outcome::HangUnknown;
      break;
  }

  // Severity (meaningful for crashes and hangs — the recovery path): a
  // damaged disk's class is set above, an undamaged one reboots.
  if ((result.outcome == Outcome::DumpedCrash ||
       result.outcome == Outcome::HangUnknown) &&
      !result.fs_damaged) {
    result.severity = Severity::Normal;
  }
}

std::size_t Injector::resume_rung(
    const std::vector<machine::Checkpoint>& ladder, std::uint64_t at) {
  // The ladder ascends (a bundle invariant): the rung before the first
  // one past `at`.
  const auto past = std::upper_bound(
      ladder.begin(), ladder.end(), at,
      [](std::uint64_t cycle, const machine::Checkpoint& rung) {
        return cycle < rung.cycle;
      });
  if (past == ladder.begin()) {
    ++stats_.checkpoint_misses;
    return ladder.size();
  }
  ++stats_.checkpoint_hits;
  return static_cast<std::size_t>(past - ladder.begin()) - 1;
}

InjectionResult Injector::run_syscall_errno(const InjectionSpec& spec,
                                            InjectionResult result) {
  const GoldenRun& ref = golden(spec.workload);
  WorkloadState& state = state_for(spec.workload);
  machine::Machine& machine = *machine_;
  const WorkloadGolden& artifact = *state.artifact;
  const std::vector<machine::Checkpoint>& rungs = artifact.ladder;

  // The injection point: the data_index-th successful syscall exit of
  // the golden timeline (failing a syscall that already failed would
  // not model an error).  No successes = nothing to inject into.
  std::vector<std::size_t> successes;
  successes.reserve(artifact.syscalls.size());
  for (std::size_t i = 0; i < artifact.syscalls.size(); ++i) {
    if (!artifact.syscalls[i].failed()) successes.push_back(i);
  }
  if (spec.instr_addr == 0 || successes.empty()) {
    result.outcome = Outcome::NotActivated;
    return result;
  }
  const std::size_t target =
      successes[spec.data_index % successes.size()];
  const std::uint64_t target_cycle = artifact.syscalls[target].cycle;

  // Resume from the latest rung strictly before the target exit;
  // pre-fault execution is identical to the golden timeline, so the
  // syscall-exit breakpoint fires at exactly the recorded cycles.
  const std::size_t rung_idx = resume_rung(rungs, target_cycle - 1);
  if (rung_idx < rungs.size()) {
    machine.restore_checkpoint(rungs[rung_idx], state.rung_memos[rung_idx]);
  } else {
    machine.restore();
  }

  const std::uint64_t budget = run_budget(ref.cycles);
  const std::uint64_t start = machine.snapshot_cycles();
  const std::uint64_t deadline = start + budget;
  const std::uint64_t entry = machine.cpu().cycles();

  machine.cpu().arm_breakpoint(0, spec.instr_addr);
  bool injected = false;
  std::uint64_t trigger_abs = entry;
  machine::RunResult run;
  for (;;) {
    const std::uint64_t now = machine.cpu().cycles();
    run = machine.run(deadline > now ? deadline - now : 1, /*resumable=*/true);
    if (run.exit != machine::RunExit::Breakpoint) break;
    const std::uint64_t hit = machine.cpu().cycles();
    if (!injected) {
      if (hit < target_cycle) continue;  // an earlier exit — skip past it
      // The target exit: overwrite the (successful) return value with
      // -errno before the kernel stores it back to the user frame.
      result.activation_cycle = hit - start;
      trigger_abs = hit;
      stats_.pre_trigger_cycles += hit - entry;
      const std::uint32_t before_eax = machine.cpu().reg(isa::Reg::Eax);
      const std::uint32_t after_eax = static_cast<std::uint32_t>(
          -static_cast<std::int32_t>(spec.errno_value));
      machine.cpu().set_reg(isa::Reg::Eax, after_eax);
      injected = true;
      if (trace_ != nullptr) {
        trace_->record(trace::EventKind::InjectTrigger, hit, spec.instr_addr);
        trace_->record(trace::EventKind::InjectFlip, hit, spec.instr_addr,
                       spec.errno_value, before_eax, after_eax);
      }
    } else {
      // Cascade accounting: every later exit, and how many of them the
      // kernel itself turned into errno failures.
      ++result.syscalls_after;
      if (SyscallExit{0, machine.cpu().reg(isa::Reg::Eax)}.failed()) {
        ++result.cascade_syscalls;
      }
    }
  }
  machine.cpu().disarm_breakpoint(0);
  if (!injected) {
    // The run ended before the target exit was reached — with a golden
    // pre-fault timeline this cannot happen, but classify it honestly.
    stats_.pre_trigger_cycles += machine.cpu().cycles() - entry;
    result.outcome = Outcome::NotActivated;
    return result;
  }
  stats_.post_trigger_cycles += machine.cpu().cycles() - trigger_abs;
  classify(result, run, machine, ref);
  return result;
}

}  // namespace kfi::inject
