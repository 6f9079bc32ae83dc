// Kernel profiling — the kernprof analog (paper §4).
//
// Samples the program counter at a fixed cycle period while each
// benchmark runs, bins samples by kernel function, and derives the
// "core N" hot-function list (the paper's top 32 covering 95% of all
// profiling values) that the injection campaigns target.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kernel/build.h"

namespace kfi::profile {

struct FunctionSamples {
  std::string function;
  kernel::Subsystem subsystem = kernel::Subsystem::Unknown;
  std::uint64_t samples = 0;
  // Per-workload breakdown (workload name -> samples): used by the
  // injector to pick the workload that exercises a target function most.
  std::map<std::string, std::uint64_t> by_workload;
};

struct ProfileResult {
  std::vector<FunctionSamples> functions;  // sorted by samples, desc
  std::uint64_t total_kernel_samples = 0;
  std::uint64_t user_samples = 0;
  std::map<std::string, std::uint64_t> workload_cycles;  // golden lengths
  // Host seconds the profile took (telemetry only).
  double seconds = 0.0;

  const FunctionSamples* find(const std::string& name) const;

  // Smallest prefix of `functions` whose samples sum to at least
  // `coverage` (e.g. 0.95) of all kernel samples — the paper's core-32.
  std::vector<std::string> core_functions(double coverage) const;

  // The workload that exercises `function` the most ("" if none).
  std::string best_workload(const std::string& function) const;

  // Table 1 rows: subsystem -> (profiled function count, count within
  // the core set).
  struct SubsystemRow {
    kernel::Subsystem subsystem;
    std::size_t profiled_functions = 0;
    std::size_t core_functions = 0;
  };
  std::vector<SubsystemRow> table1(double coverage) const;
};

// The kernel profile, taken once per process (deterministic, shared by
// injector and benches): every workload runs on a fresh machine from
// reset, and the kernel PC is sampled every 97 cycles from the
// workload's first user-mode instruction on, for at most 40M cycles
// per workload.  The machines never restore, so none captures a
// post-boot image (Machine::run_to_entry).
const ProfileResult& default_profile();

}  // namespace kfi::profile
