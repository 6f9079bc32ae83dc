// Injection campaign vocabulary: campaigns (Table 4), outcome categories
// (Table 3), crash causes (Figure 6), and crash severity (§7.1).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "kernel/build.h"

namespace kfi::inject {

// The paper's three campaigns (Table 4) plus the extended fault-model
// campaigns (ROADMAP "new fault models" track; CHAOS-style register and
// data faults, errno injection at the syscall boundary).
enum class Campaign : std::uint8_t {
  RandomNonBranch,   // A: a random bit in each byte of non-branch instrs
  RandomBranch,      // B: a random bit in each byte of conditional branches
  IncorrectBranch,   // C: the bit that reverses the branch condition
  RegisterFile,      // D: a random bit of a GPR/EFLAGS at trigger time
  KernelData,        // E: a random bit of a written kernel data/stack byte
  SyscallErrno,      // F: a successful syscall return replaced by -errno
};

std::string_view campaign_name(Campaign campaign);        // "A" ... "F"
std::string_view campaign_description(Campaign campaign);

// Where the corruption lands.  Campaigns A/B/C flip a bit of an
// instruction's encoding; D/E/F generalize the spec to the register
// file, kernel data pages, and the syscall return value.  Carried by
// every InjectionSpec so the injector, serializers, and the campaign
// service's config-echo hash all dispatch on it explicitly instead of
// inferring it from the campaign letter.
enum class FaultModel : std::uint8_t {
  InstrBit,      // flip one bit of one instruction byte (A/B/C)
  RegisterBit,   // flip one bit of a GPR or a modeled EFLAGS bit (D)
  DataBit,       // flip one bit of a kernel data/stack byte (E)
  SyscallErrno,  // overwrite a successful syscall return with -errno (F)
};

std::string_view fault_model_name(FaultModel model);

// The fault model each campaign injects under.
FaultModel campaign_fault_model(Campaign campaign);

// Register-file target encoding for FaultModel::RegisterBit: values
// 0..7 are isa::Reg GPR numbers; kEflagsTarget selects EFLAGS (the
// bit index must then be one of the modeled flag bits).
inline constexpr std::uint8_t kEflagsTarget = 8;

// Outcome categories (Table 3).  DumpedCrash and HangUnknown together
// form the tables' "Crash/Hang" column.
enum class Outcome : std::uint8_t {
  NotActivated,          // corrupted instruction never executed
  NotManifested,         // executed, no visible abnormal effect
  FailSilenceViolation,  // wrong output / error reported to the app
  DumpedCrash,           // kernel oops with a crash dump
  HangUnknown,           // watchdog reboot: hang or dump-less crash
};

std::string_view outcome_name(Outcome outcome);

// Crash causes as the kernel reports them (Figure 6 categories).
enum class CrashCause : std::uint8_t {
  NullPointer,     // unable to handle kernel NULL pointer dereference
  PagingRequest,   // unable to handle kernel paging request
  InvalidOpcode,   // invalid operand/opcode (incl. BUG()/ud2 assertions)
  GpFault,         // general protection fault
  DivideError,
  KernelPanic,
  OutOfMemory,
  Other,
};

std::string_view crash_cause_name(CrashCause cause);

// Compact label for dense renderings ("null-ptr", "paging", ...).
std::string_view crash_cause_short_name(CrashCause cause);

// Maps the kernel's crash-port code to the analysis category.
CrashCause crash_cause_from_code(std::uint32_t code);

// Crash severity (§7.1): downtime class after the crash.
enum class Severity : std::uint8_t {
  NotApplicable,  // run did not crash
  Normal,         // clean fs: automatic reboot (< 4 minutes)
  Severe,         // fs repairable by interactive fsck (> 5 minutes)
  MostSevere,     // fs unrepairable or unbootable: reformat (~1 hour)
};

std::string_view severity_name(Severity severity);

// Modeled downtime per severity class, in seconds (§7.1's figures).
std::uint32_t severity_downtime_seconds(Severity severity);

// What and where was injected.
struct InjectionSpec {
  Campaign campaign = Campaign::RandomNonBranch;
  std::string function;
  kernel::Subsystem subsystem = kernel::Subsystem::Unknown;
  std::uint32_t instr_addr = 0;
  std::uint8_t instr_len = 0;
  std::uint8_t byte_index = 0;
  std::uint8_t bit_index = 0;
  std::string workload;

  // Fault-model extension (defaults describe A/B/C exactly, so every
  // pre-existing spec is a valid InstrBit spec unchanged).
  FaultModel model = FaultModel::InstrBit;
  // RegisterBit: GPR number 0..7, or kEflagsTarget for EFLAGS.
  std::uint8_t target_reg = 0;
  // DataBit: explicit physical byte address to flip; 0 means "resolve
  // through data_index against the golden run's written-data footprint".
  std::uint32_t data_addr = 0;
  // DataBit: index into the sorted write footprint (taken modulo its
  // size at run time).  SyscallErrno: picks which successful golden
  // syscall exit to corrupt (modulo the golden success count).
  std::uint32_t data_index = 0;
  // SyscallErrno: the positive errno value injected as -errno.
  std::uint32_t errno_value = 0;
};

// Why `spec` cannot be injected — a field outside the range its fault
// model applies to the machine (a flip bit past the flipped unit, a
// register past the file, a byte outside the instruction or RAM) — or
// nullptr when it can.  Specs decoded from disk are untrusted: the
// result readers reject such records and Injector::run_one throws.
const char* spec_defect(const InjectionSpec& spec);

// One injection run's full record.
struct InjectionResult {
  InjectionSpec spec;
  Outcome outcome = Outcome::NotActivated;
  std::uint64_t activation_cycle = 0;  // relative to run start

  // Crash analysis (valid when outcome == DumpedCrash).
  CrashCause cause = CrashCause::Other;
  std::uint32_t crash_eip = 0;
  std::uint32_t crash_addr = 0;
  kernel::Subsystem crash_subsystem = kernel::Subsystem::Unknown;
  bool propagated = false;         // crashed outside the faulted subsystem
  std::uint64_t latency_cycles = 0;

  // Post-run disk state (valid for every activated outcome).
  Severity severity = Severity::NotApplicable;
  bool fs_damaged = false;
  bool bootable = true;
  // For Severe gradings: whether fsck_repair on a copy of the damaged
  // image actually converged to a clean fs (validates the taxonomy).
  bool repair_verified = false;

  // Case-study material.
  std::string disasm_before;
  std::string disasm_after;

  // Fault-model extras.  DataBit: the physical byte address actually
  // flipped (spec.data_addr, or the footprint entry data_index resolved
  // to).  SyscallErrno: how many syscall exits followed the injection,
  // and how many of those also returned an error — the cascade length.
  std::uint32_t data_addr = 0;
  std::uint32_t syscalls_after = 0;
  std::uint32_t cascade_syscalls = 0;
};

}  // namespace kfi::inject
