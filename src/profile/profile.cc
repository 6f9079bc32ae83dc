#include "profile/profile.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "machine/machine.h"

namespace kfi::profile {

const FunctionSamples* ProfileResult::find(const std::string& name) const {
  for (const FunctionSamples& fs : functions) {
    if (fs.function == name) return &fs;
  }
  return nullptr;
}

std::vector<std::string> ProfileResult::core_functions(double coverage) const {
  std::vector<std::string> core;
  if (total_kernel_samples == 0) return core;
  const auto want = static_cast<std::uint64_t>(
      coverage * static_cast<double>(total_kernel_samples));
  std::uint64_t have = 0;
  for (const FunctionSamples& fs : functions) {
    if (have >= want) break;
    core.push_back(fs.function);
    have += fs.samples;
  }
  return core;
}

std::string ProfileResult::best_workload(const std::string& function) const {
  const FunctionSamples* fs = find(function);
  if (fs == nullptr) return "";
  std::string best;
  std::uint64_t best_samples = 0;
  for (const auto& [workload, samples] : fs->by_workload) {
    if (samples > best_samples) {
      best_samples = samples;
      best = workload;
    }
  }
  return best;
}

std::vector<ProfileResult::SubsystemRow> ProfileResult::table1(
    double coverage) const {
  const std::vector<std::string> core = core_functions(coverage);
  std::map<kernel::Subsystem, SubsystemRow> rows;
  for (const FunctionSamples& fs : functions) {
    SubsystemRow& row = rows[fs.subsystem];
    row.subsystem = fs.subsystem;
    ++row.profiled_functions;
  }
  for (const std::string& name : core) {
    const FunctionSamples* fs = find(name);
    if (fs != nullptr) ++rows[fs->subsystem].core_functions;
  }
  std::vector<SubsystemRow> out;
  for (auto& [subsystem, row] : rows) out.push_back(row);
  return out;
}

namespace {

constexpr std::uint32_t kSamplePeriod = 97;       // cycles between PC samples
constexpr std::uint64_t kRunBudget = 40'000'000;  // per-workload watchdog

ProfileResult profile_kernel() {
  const auto began = std::chrono::steady_clock::now();
  const kernel::KernelImage& image = kernel::built_kernel();
  const disk::DiskImage root_disk = machine::make_root_disk();

  ProfileResult result;
  std::map<std::string, FunctionSamples> bins;

  for (const workloads::Workload& workload : workloads::all_workloads()) {
    const std::string& name = workload.name;
    machine::Machine machine(image, workloads::built_workload(name),
                             root_disk);
    if (!machine.run_to_entry()) {
      throw std::runtime_error("profiling: " + name + " failed to boot");
    }
    const std::uint64_t start = machine.cpu().cycles();
    bool done = false;
    while (!done && machine.cpu().cycles() - start < kRunBudget) {
      const machine::RunResult run = machine.run(kSamplePeriod);
      switch (run.exit) {
        case machine::RunExit::Completed:
          done = true;
          break;
        case machine::RunExit::Hung: {
          // Budget pause: take a sample at the current PC.
          const std::uint32_t pc = machine.cpu().eip();
          const kernel::KernelFunction* fn = image.function_at(pc);
          if (fn != nullptr) {
            FunctionSamples& bin = bins[fn->name];
            bin.function = fn->name;
            bin.subsystem = fn->subsystem;
            ++bin.samples;
            ++bin.by_workload[name];
            ++result.total_kernel_samples;
          } else {
            ++result.user_samples;
          }
          break;
        }
        default:
          throw std::runtime_error("profiling: " + name +
                                   " did not complete cleanly");
      }
    }
    result.workload_cycles[name] = machine.cpu().cycles() - start;
  }

  for (auto& [name, bin] : bins) result.functions.push_back(std::move(bin));
  std::sort(result.functions.begin(), result.functions.end(),
            [](const FunctionSamples& a, const FunctionSamples& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.function < b.function;
            });
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - began)
                       .count();
  return result;
}

}  // namespace

const ProfileResult& default_profile() {
  static const ProfileResult result = profile_kernel();
  return result;
}

}  // namespace kfi::profile
