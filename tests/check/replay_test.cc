// Deterministic single-run replay against the committed campaign
// artifacts: every sampled injection from a persisted .kfi file must
// reproduce bit-for-bit on a freshly constructed injector, and the
// persisted specs must regenerate from (campaign, seed, repeats).
#include "check/replay.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <set>
#include <string>

#include "analysis/io.h"
#include "check/expectations.h"
#include "profile/profile.h"
#include "vm/layout.h"

#ifndef KFI_SOURCE_DIR
#define KFI_SOURCE_DIR "."
#endif

namespace kfi::check {
namespace {

using inject::Campaign;
using inject::CampaignRun;
using inject::InjectionResult;
using inject::Outcome;

// The committed campaign-C artifact (the smallest of the three caches;
// 285 results at seed 2003).  Its file name embeds the kernel
// fingerprint, so a mismatch means the kernel changed without the
// caches being regenerated — which must fail loudly, not skip.
std::string campaign_c_path() {
  return analysis::campaign_cache_path(std::string(KFI_SOURCE_DIR) +
                                           "/kfi-results",
                                       Campaign::IncorrectBranch, 1, 2003,
                                       kernel::built_kernel());
}

TEST(check_replay, DiffResultsFindsEveryFieldChange) {
  InjectionResult a;
  a.spec.function = "pipe_read";
  a.spec.workload = "pipe";
  a.outcome = Outcome::DumpedCrash;
  a.latency_cycles = 7;
  a.disasm_after = "jne c0134580";
  InjectionResult b = a;
  EXPECT_TRUE(diff_results(a, b).empty());

  b.outcome = Outcome::NotManifested;
  b.latency_cycles = 8;
  b.disasm_after = "je c0134580";
  const auto diffs = diff_results(a, b);
  ASSERT_EQ(diffs.size(), 3u);
  std::set<std::string> fields;
  for (const FieldDiff& diff : diffs) fields.insert(diff.field);
  EXPECT_TRUE(fields.count("outcome"));
  EXPECT_TRUE(fields.count("latency_cycles"));
  EXPECT_TRUE(fields.count("disasm_after"));
}

TEST(check_replay, SampleIndicesCoverEachOutcomeOnce) {
  CampaignRun run;
  for (const Outcome outcome :
       {Outcome::NotActivated, Outcome::NotManifested, Outcome::NotManifested,
        Outcome::DumpedCrash, Outcome::FailSilenceViolation,
        Outcome::DumpedCrash}) {
    InjectionResult r;
    r.outcome = outcome;
    run.results.push_back(r);
  }
  const auto indices = sample_indices(run, 1);
  ASSERT_EQ(indices.size(), 4u);  // one per distinct outcome
  std::set<Outcome> outcomes;
  for (const std::size_t i : indices) outcomes.insert(run.results[i].outcome);
  EXPECT_EQ(outcomes.size(), 4u);

  EXPECT_EQ(sample_indices(run, 2).size(), 6u);
}

// The headline acceptance property: replaying persisted runs — at
// least one crash, one not-manifested, and one fail-silence violation —
// reproduces the recorded InjectionResult bit-for-bit.
TEST(check_replay, CommittedCampaignCReplaysBitForBit) {
  const std::string path = campaign_c_path();
  const auto run = analysis::load_campaign(path);
  ASSERT_TRUE(run.has_value())
      << "cannot load " << path
      << " — if the kernel image changed, regenerate the kfi-results"
         " caches (see EXPERIMENTS.md, 'Verifying a change')";

  inject::Injector injector;
  const ReplayReport report = replay_samples(injector, *run, 1);
  ASSERT_GE(report.replays.size(), 3u);

  std::set<Outcome> replayed_outcomes;
  for (const ReplayOutcome& replay : report.replays) {
    replayed_outcomes.insert(replay.recorded.outcome);
    EXPECT_TRUE(replay.identical())
        << "run #" << replay.index << " (" << replay.recorded.spec.function
        << ") did not reproduce:\n"
        << render_replay(report);
  }
  // Campaign C's distribution guarantees all three headline categories.
  EXPECT_TRUE(replayed_outcomes.count(Outcome::DumpedCrash));
  EXPECT_TRUE(replayed_outcomes.count(Outcome::NotManifested));
  EXPECT_TRUE(replayed_outcomes.count(Outcome::FailSilenceViolation));
}

// (campaign, seed, repeats) fully determines the target list, so the
// persisted specs must match a regenerated list index-for-index — the
// other half of the replay coordinate.
TEST(check_replay, CommittedSpecsRegenerateFromSeed) {
  const auto run = analysis::load_campaign(campaign_c_path());
  ASSERT_TRUE(run.has_value());

  inject::CampaignConfig config;
  config.campaign = Campaign::IncorrectBranch;
  config.seed = 2003;
  config.repeats = 1;
  std::size_t functions_targeted = 0;
  const auto targets = inject::campaign_targets(profile::default_profile(),
                                                config, &functions_targeted);
  ASSERT_EQ(targets.size(), run->results.size());
  EXPECT_EQ(functions_targeted, run->functions_targeted);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto diffs = diff_specs(run->results[i].spec, targets[i]);
    ASSERT_TRUE(diffs.empty())
        << "spec #" << i << " field '" << diffs[0].field << "': recorded "
        << diffs[0].recorded << ", regenerated " << diffs[0].replayed;
  }
}

// `kfi_check replay <file> --index 0`'s exit status.
int replay_cli(const std::string& path) {
  const std::string command =
      std::string(KFI_CHECK_CLI) + " replay " + path + " --index 0 >/dev/null";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// The committed campaign-E reference with record 0 mutated, saved under
// `name` in the temp directory.
std::string mutated_campaign_e(
    const char* name, const std::function<void(inject::InjectionSpec&)>& mutate) {
  auto run = analysis::load_campaign(std::string(KFI_SOURCE_DIR) +
                                     "/kfibench/refs/campaign_E_r1_s2003_"
                                     "kc6cb2604.kfi");
  EXPECT_TRUE(run.has_value());
  if (!run.has_value()) return "";
  mutate(run->results[0].spec);
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  EXPECT_TRUE(analysis::save_campaign(*run, path));
  return path;
}

// A record's spec is replayed on a machine, so a field that would take
// the machine out of bounds there — RAM, a shift width, the register
// file — rejects the whole file at load, and the replay CLI exits 1
// without running anything.
TEST(check_replay, OutOfRangeSpecFieldsRejectTheFile) {
  const std::pair<const char*, std::function<void(inject::InjectionSpec&)>>
      mutations[] = {
          {"kfi_mutated_data_addr.kfi",
           [](inject::InjectionSpec& s) { s.data_addr = vm::kRamSize; }},
          {"kfi_mutated_bit_index.kfi",
           [](inject::InjectionSpec& s) { s.bit_index = 40; }},
          {"kfi_mutated_target_reg.kfi",
           [](inject::InjectionSpec& s) { s.target_reg = 200; }},
      };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    const std::string path = mutated_campaign_e(name, mutate);
    EXPECT_FALSE(analysis::load_campaign(path).has_value());
    EXPECT_EQ(replay_cli(path), 1);
    std::filesystem::remove(path);
  }
}

// Fields in bounds for the machine but outside what the fault model
// can mean load, and the injector refuses them: the replay reports a
// spec diff and the CLI exits 1.
TEST(check_replay, SpecTheInjectorRefusesFailsToReproduce) {
  const std::string path = mutated_campaign_e(
      "kfi_mutated_data_bit.kfi", [](inject::InjectionSpec& s) {
        ASSERT_EQ(s.model, inject::FaultModel::DataBit);
        s.bit_index = 9;  // a data flip targets one byte
      });
  const auto run = analysis::load_campaign(path);
  ASSERT_TRUE(run.has_value());
  inject::Injector injector;
  EXPECT_THROW(injector.run_one(run->results[0].spec), std::invalid_argument);
  const ReplayOutcome replay = replay_one(injector, *run, 0);
  ASSERT_EQ(replay.diffs.size(), 1u);
  EXPECT_EQ(replay.diffs[0].field, "spec");
  EXPECT_EQ(replay_cli(path), 1);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace kfi::check
