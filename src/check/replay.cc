#include "check/replay.h"

#include <map>
#include <stdexcept>

#include "support/strings.h"

namespace kfi::check {

namespace {

using inject::InjectionResult;
using inject::InjectionSpec;

void diff_field(std::vector<FieldDiff>& diffs, const char* field,
                std::uint64_t recorded, std::uint64_t replayed) {
  if (recorded == replayed) return;
  diffs.push_back({field, format("%llu", (unsigned long long)recorded),
                   format("%llu", (unsigned long long)replayed)});
}

void diff_field(std::vector<FieldDiff>& diffs, const char* field,
                const std::string& recorded, const std::string& replayed) {
  if (recorded == replayed) return;
  diffs.push_back({field, recorded, replayed});
}

}  // namespace

std::vector<FieldDiff> diff_specs(const InjectionSpec& recorded,
                                  const InjectionSpec& regenerated) {
  std::vector<FieldDiff> diffs;
  diff_field(diffs, "spec.campaign", static_cast<std::uint64_t>(recorded.campaign),
             static_cast<std::uint64_t>(regenerated.campaign));
  diff_field(diffs, "spec.function", recorded.function, regenerated.function);
  diff_field(diffs, "spec.subsystem",
             static_cast<std::uint64_t>(recorded.subsystem),
             static_cast<std::uint64_t>(regenerated.subsystem));
  diff_field(diffs, "spec.instr_addr", recorded.instr_addr,
             regenerated.instr_addr);
  diff_field(diffs, "spec.instr_len", recorded.instr_len,
             regenerated.instr_len);
  diff_field(diffs, "spec.byte_index", recorded.byte_index,
             regenerated.byte_index);
  diff_field(diffs, "spec.bit_index", recorded.bit_index,
             regenerated.bit_index);
  diff_field(diffs, "spec.workload", recorded.workload, regenerated.workload);
  return diffs;
}

std::vector<FieldDiff> diff_results(const InjectionResult& recorded,
                                    const InjectionResult& replayed) {
  std::vector<FieldDiff> diffs = diff_specs(recorded.spec, replayed.spec);
  diff_field(diffs, "outcome", static_cast<std::uint64_t>(recorded.outcome),
             static_cast<std::uint64_t>(replayed.outcome));
  diff_field(diffs, "activation_cycle", recorded.activation_cycle,
             replayed.activation_cycle);
  diff_field(diffs, "cause", static_cast<std::uint64_t>(recorded.cause),
             static_cast<std::uint64_t>(replayed.cause));
  diff_field(diffs, "crash_eip", recorded.crash_eip, replayed.crash_eip);
  diff_field(diffs, "crash_addr", recorded.crash_addr, replayed.crash_addr);
  diff_field(diffs, "crash_subsystem",
             static_cast<std::uint64_t>(recorded.crash_subsystem),
             static_cast<std::uint64_t>(replayed.crash_subsystem));
  diff_field(diffs, "propagated", recorded.propagated ? 1 : 0,
             replayed.propagated ? 1 : 0);
  diff_field(diffs, "latency_cycles", recorded.latency_cycles,
             replayed.latency_cycles);
  diff_field(diffs, "severity", static_cast<std::uint64_t>(recorded.severity),
             static_cast<std::uint64_t>(replayed.severity));
  diff_field(diffs, "fs_damaged", recorded.fs_damaged ? 1 : 0,
             replayed.fs_damaged ? 1 : 0);
  diff_field(diffs, "bootable", recorded.bootable ? 1 : 0,
             replayed.bootable ? 1 : 0);
  diff_field(diffs, "repair_verified", recorded.repair_verified ? 1 : 0,
             replayed.repair_verified ? 1 : 0);
  diff_field(diffs, "disasm_before", recorded.disasm_before,
             replayed.disasm_before);
  diff_field(diffs, "disasm_after", recorded.disasm_after,
             replayed.disasm_after);
  return diffs;
}

ReplayOutcome replay_one(inject::Injector& injector,
                         const inject::CampaignRun& run, std::size_t index) {
  ReplayOutcome outcome;
  outcome.index = index;
  outcome.recorded = run.results[index];
  // A record that loaded can still hold a spec the injector refuses
  // (inject::spec_defect): it fails to reproduce, it does not abort.
  try {
    outcome.replayed = injector.run_one(outcome.recorded.spec);
  } catch (const std::invalid_argument& rejected) {
    outcome.diffs.push_back(FieldDiff{"spec", "recorded", rejected.what()});
    return outcome;
  }
  outcome.diffs = diff_results(outcome.recorded, outcome.replayed);
  return outcome;
}

std::vector<std::size_t> sample_indices(const inject::CampaignRun& run,
                                        std::size_t max_per_outcome) {
  std::map<inject::Outcome, std::size_t> taken;
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    std::size_t& count = taken[run.results[i].outcome];
    if (count >= max_per_outcome) continue;
    ++count;
    indices.push_back(i);
  }
  return indices;
}

std::size_t ReplayReport::identical_count() const {
  std::size_t n = 0;
  for (const ReplayOutcome& replay : replays) {
    if (replay.identical()) ++n;
  }
  return n;
}

ReplayReport replay_samples(inject::Injector& injector,
                            const inject::CampaignRun& run,
                            std::size_t max_per_outcome) {
  ReplayReport report;
  for (const std::size_t index : sample_indices(run, max_per_outcome)) {
    report.replays.push_back(replay_one(injector, run, index));
  }
  return report;
}

std::string render_replay(const ReplayReport& report) {
  std::string out;
  for (const ReplayOutcome& replay : report.replays) {
    out += format("  [%s] #%zu %s @%s byte %u bit %u (%s) -> %s\n",
                  replay.identical() ? "PASS" : "FAIL", replay.index,
                  replay.recorded.spec.function.c_str(),
                  hex32(replay.recorded.spec.instr_addr).c_str(),
                  replay.recorded.spec.byte_index,
                  replay.recorded.spec.bit_index,
                  replay.recorded.spec.workload.c_str(),
                  std::string(inject::outcome_name(replay.recorded.outcome))
                      .c_str());
    for (const FieldDiff& diff : replay.diffs) {
      out += format("         %-16s recorded %s, replayed %s\n",
                    diff.field.c_str(), diff.recorded.c_str(),
                    diff.replayed.c_str());
    }
  }
  for (const auto& [index, diffs] : report.spec_mismatches) {
    out += format("  [FAIL] #%zu spec does not regenerate:\n", index);
    for (const FieldDiff& diff : diffs) {
      out += format("         %-16s recorded %s, regenerated %s\n",
                    diff.field.c_str(), diff.recorded.c_str(),
                    diff.replayed.c_str());
    }
  }
  out += format("%zu of %zu replays identical\n", report.identical_count(),
                report.replays.size());
  return out;
}

RunComparison compare_runs(const inject::CampaignRun& x,
                           const inject::CampaignRun& y) {
  RunComparison comparison;
  if (x.results.size() != y.results.size()) {
    comparison.size_mismatch = true;
    return comparison;
  }
  comparison.compared = x.results.size();
  for (std::size_t i = 0; i < x.results.size(); ++i) {
    std::vector<FieldDiff> diffs = diff_results(x.results[i], y.results[i]);
    if (!diffs.empty()) {
      comparison.mismatches.emplace_back(i, std::move(diffs));
    }
  }
  return comparison;
}

}  // namespace kfi::check
