#include "inject/outcome.h"

#include "kernel/koffsets.h"
#include "vm/layout.h"

namespace kfi::inject {

std::string_view campaign_name(Campaign campaign) {
  switch (campaign) {
    case Campaign::RandomNonBranch: return "A";
    case Campaign::RandomBranch: return "B";
    case Campaign::IncorrectBranch: return "C";
    case Campaign::RegisterFile: return "D";
    case Campaign::KernelData: return "E";
    case Campaign::SyscallErrno: return "F";
  }
  return "?";
}

std::string_view campaign_description(Campaign campaign) {
  switch (campaign) {
    case Campaign::RandomNonBranch:
      return "Any Random Error: a random bit in each byte of every "
             "non-branch instruction";
    case Campaign::RandomBranch:
      return "Random Branch Error: a random bit in each byte of every "
             "conditional branch instruction";
    case Campaign::IncorrectBranch:
      return "Valid but Incorrect Branch: the bit that reverses the "
             "condition of the branch instruction";
    case Campaign::RegisterFile:
      return "Register File Error: a random bit of a general-purpose "
             "register or EFLAGS flipped when a target instruction is "
             "reached";
    case Campaign::KernelData:
      return "Kernel Data Error: a random bit of a kernel data/stack "
             "byte from the golden run's written footprint flipped when "
             "a target instruction is reached";
    case Campaign::SyscallErrno:
      return "Syscall Errno Error: a successful system-call return "
             "value replaced by -errno at the syscall-exit boundary";
  }
  return "?";
}

std::string_view fault_model_name(FaultModel model) {
  switch (model) {
    case FaultModel::InstrBit: return "instr-bit";
    case FaultModel::RegisterBit: return "register-bit";
    case FaultModel::DataBit: return "data-bit";
    case FaultModel::SyscallErrno: return "syscall-errno";
  }
  return "?";
}

FaultModel campaign_fault_model(Campaign campaign) {
  switch (campaign) {
    case Campaign::RandomNonBranch:
    case Campaign::RandomBranch:
    case Campaign::IncorrectBranch:
      return FaultModel::InstrBit;
    case Campaign::RegisterFile: return FaultModel::RegisterBit;
    case Campaign::KernelData: return FaultModel::DataBit;
    case Campaign::SyscallErrno: return FaultModel::SyscallErrno;
  }
  return FaultModel::InstrBit;
}

std::string_view outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::NotActivated: return "Not Activated";
    case Outcome::NotManifested: return "Not Manifested";
    case Outcome::FailSilenceViolation: return "Fail Silence Violation";
    case Outcome::DumpedCrash: return "Dumped Crash";
    case Outcome::HangUnknown: return "Hang/Unknown Crash";
  }
  return "?";
}

std::string_view crash_cause_name(CrashCause cause) {
  switch (cause) {
    case CrashCause::NullPointer:
      return "unable to handle kernel NULL pointer dereference";
    case CrashCause::PagingRequest:
      return "unable to handle kernel paging request";
    case CrashCause::InvalidOpcode: return "invalid opcode";
    case CrashCause::GpFault: return "general protection fault";
    case CrashCause::DivideError: return "divide error";
    case CrashCause::KernelPanic: return "kernel panic";
    case CrashCause::OutOfMemory: return "out of memory";
    case CrashCause::Other: return "other";
  }
  return "?";
}

std::string_view crash_cause_short_name(CrashCause cause) {
  switch (cause) {
    case CrashCause::NullPointer: return "null-ptr";
    case CrashCause::PagingRequest: return "paging";
    case CrashCause::InvalidOpcode: return "inv-op";
    case CrashCause::GpFault: return "gp";
    case CrashCause::DivideError: return "divide";
    case CrashCause::KernelPanic: return "panic";
    case CrashCause::OutOfMemory: return "oom";
    case CrashCause::Other: return "other";
  }
  return "?";
}

CrashCause crash_cause_from_code(std::uint32_t code) {
  switch (code) {
    case kernel::CRASH_NULL_POINTER: return CrashCause::NullPointer;
    case kernel::CRASH_PAGING_REQUEST: return CrashCause::PagingRequest;
    case kernel::CRASH_INVALID_OPCODE: return CrashCause::InvalidOpcode;
    case kernel::CRASH_GP_FAULT: return CrashCause::GpFault;
    case kernel::CRASH_DIVIDE: return CrashCause::DivideError;
    case kernel::CRASH_PANIC: return CrashCause::KernelPanic;
    case kernel::CRASH_OUT_OF_MEMORY: return CrashCause::OutOfMemory;
    default: return CrashCause::Other;
  }
}

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::NotApplicable: return "n/a";
    case Severity::Normal: return "normal";
    case Severity::Severe: return "severe";
    case Severity::MostSevere: return "most severe";
  }
  return "?";
}

std::uint32_t severity_downtime_seconds(Severity severity) {
  switch (severity) {
    case Severity::NotApplicable: return 0;
    case Severity::Normal: return 4 * 60;        // automatic reboot
    case Severity::Severe: return 6 * 60;        // interactive fsck
    case Severity::MostSevere: return 55 * 60;   // reformat + reinstall
  }
  return 0;
}

const char* spec_defect(const InjectionSpec& spec) {
  if (spec.model > FaultModel::SyscallErrno) return "unknown fault model";
  if (spec.target_reg > kEflagsTarget) return "target_reg out of range";
  if (spec.data_addr >= vm::kRamSize) return "data_addr outside RAM";
  const bool byte_flip =
      spec.model == FaultModel::InstrBit || spec.model == FaultModel::DataBit;
  if (spec.bit_index >= (byte_flip ? 8 : 32)) return "bit_index out of range";
  if (spec.model == FaultModel::InstrBit && spec.byte_index >= spec.instr_len) {
    return "byte_index outside the instruction";
  }
  return nullptr;
}

}  // namespace kfi::inject
