// Injection engine tests: trigger semantics, outcome classification,
// crash-cause mapping, latency, and the paper's §8 case studies.
#include "inject/injector.h"

#include <gtest/gtest.h>

#include "inject/campaign.h"
#include "inject/targets.h"

namespace kfi::inject {
namespace {

Injector& shared_injector() {
  static Injector injector;
  return injector;
}

const kernel::KernelImage& image() { return kernel::built_kernel(); }

// Builds a spec for a given site/byte/bit inside a function.
InjectionSpec spec_for(const char* function, const InstructionSite& site,
                       std::uint8_t byte_index, std::uint8_t bit_index,
                       const char* workload, Campaign campaign) {
  const kernel::KernelFunction* fn = image().function(function);
  InjectionSpec spec;
  spec.campaign = campaign;
  spec.function = function;
  spec.subsystem = fn->subsystem;
  spec.instr_addr = site.addr;
  spec.instr_len = static_cast<std::uint8_t>(site.bytes.size());
  spec.byte_index = byte_index;
  spec.bit_index = bit_index;
  spec.workload = workload;
  return spec;
}

TEST(Targets, EnumerateDecodesWholeFunction) {
  const kernel::KernelFunction* fn = image().function("pipe_read");
  ASSERT_NE(fn, nullptr);
  const auto sites = enumerate_function(image(), *fn);
  ASSERT_FALSE(sites.empty());
  // Sites are contiguous from the function start.
  std::uint32_t expect = fn->start;
  for (const InstructionSite& site : sites) {
    EXPECT_EQ(site.addr, expect);
    expect += static_cast<std::uint32_t>(site.bytes.size());
    EXPECT_NE(site.disasm, "(bad)");
  }
  EXPECT_EQ(expect, fn->end);
}

TEST(Targets, ConditionalBranchesFound) {
  const kernel::KernelFunction* fn = image().function("pipe_read");
  const auto sites = enumerate_function(image(), *fn);
  int cond_branches = 0;
  for (const InstructionSite& site : sites) {
    if (site.is_cond_branch) {
      ++cond_branches;
      EXPECT_GE(condition_byte_index(site), 0);
    }
  }
  EXPECT_GT(cond_branches, 2) << "pipe_read has several guards";
}

TEST(Targets, CampaignAExcludesBranches) {
  const kernel::KernelFunction* fn = image().function("schedule");
  Rng rng(1);
  const auto targets =
      make_targets(image(), *fn, Campaign::RandomNonBranch, rng);
  ASSERT_FALSE(targets.empty());
  const auto sites = enumerate_function(image(), *fn);
  for (const InjectionSpec& spec : targets) {
    for (const InstructionSite& site : sites) {
      if (site.addr == spec.instr_addr) {
        EXPECT_FALSE(site.is_branch);
      }
    }
  }
}

TEST(Targets, CampaignCOneTargetPerBranchConditionBit) {
  const kernel::KernelFunction* fn = image().function("pipe_read");
  Rng rng(1);
  const auto targets =
      make_targets(image(), *fn, Campaign::IncorrectBranch, rng);
  const auto sites = enumerate_function(image(), *fn);
  std::size_t cond_branches = 0;
  for (const auto& site : sites) {
    if (site.is_cond_branch) ++cond_branches;
  }
  EXPECT_EQ(targets.size(), cond_branches);
  for (const InjectionSpec& spec : targets) {
    EXPECT_EQ(spec.bit_index, 0u);
  }
}

TEST(Targets, RepeatsMultiplyRandomCampaigns) {
  const kernel::KernelFunction* fn = image().function("schedule");
  Rng rng1(1);
  Rng rng2(1);
  const auto once = make_targets(image(), *fn, Campaign::RandomNonBranch,
                                 rng1, 1);
  const auto thrice = make_targets(image(), *fn, Campaign::RandomNonBranch,
                                   rng2, 3);
  EXPECT_EQ(thrice.size(), once.size() * 3);
}

TEST(Injector, GoldenRunsCompleteForAllWorkloads) {
  for (const workloads::Workload& w : workloads::all_workloads()) {
    const GoldenRun& golden = shared_injector().golden(w.name);
    EXPECT_TRUE(golden.ok) << w.name;
    EXPECT_GT(golden.cycles, 0u) << w.name;
    EXPECT_NE(golden.fs_digest, 0u) << w.name;
  }
}

TEST(Injector, NeverExecutedTargetIsNotActivated) {
  // sys_unlink never runs under the pipe workload.
  const kernel::KernelFunction* fn = image().function("sys_unlink");
  ASSERT_NE(fn, nullptr);
  const auto sites = enumerate_function(image(), *fn);
  ASSERT_FALSE(sites.empty());
  const InjectionSpec spec = spec_for("sys_unlink", sites[0], 0, 3, "pipe",
                                      Campaign::RandomNonBranch);
  const InjectionResult result = shared_injector().run_one(spec);
  EXPECT_EQ(result.outcome, Outcome::NotActivated);
}

TEST(Injector, PipeReadGuardReversalIsFailSilenceViolation) {
  // The paper's §8 example: reversing pipe_read's type guard makes the
  // kernel return -ESPIPE to a correct read() -> fail silence violation.
  const kernel::KernelFunction* fn = image().function("pipe_read");
  ASSERT_NE(fn, nullptr);
  const auto sites = enumerate_function(image(), *fn);
  // First conditional branch = the guard at the function head.
  const InstructionSite* guard = nullptr;
  for (const InstructionSite& site : sites) {
    if (site.is_cond_branch) {
      guard = &site;
      break;
    }
  }
  ASSERT_NE(guard, nullptr);
  const InjectionSpec spec =
      spec_for("pipe_read", *guard,
               static_cast<std::uint8_t>(condition_byte_index(*guard)), 0,
               "pipe", Campaign::IncorrectBranch);
  const InjectionResult result = shared_injector().run_one(spec);
  EXPECT_EQ(result.outcome, Outcome::FailSilenceViolation)
      << outcome_name(result.outcome);
}

TEST(Injector, AssertReversalCrashesWithInvalidOpcode) {
  // free_pages() asserts the refcount is non-zero; reversing that
  // branch executes the BUG() ud2 (paper Table 7 example 4).
  const kernel::KernelFunction* fn = image().function("free_pages");
  ASSERT_NE(fn, nullptr);
  const auto sites = enumerate_function(image(), *fn);
  // Find the Jcc immediately preceding a ud2.
  const InstructionSite* guard = nullptr;
  for (std::size_t i = 0; i + 1 < sites.size(); ++i) {
    if (sites[i].is_cond_branch && sites[i + 1].disasm == "ud2a") {
      guard = &sites[i];
      break;
    }
  }
  ASSERT_NE(guard, nullptr) << "free_pages should contain assert + ud2";
  const InjectionSpec spec =
      spec_for("free_pages", *guard,
               static_cast<std::uint8_t>(condition_byte_index(*guard)), 0,
               "spawn", Campaign::IncorrectBranch);
  const InjectionResult result = shared_injector().run_one(spec);
  ASSERT_EQ(result.outcome, Outcome::DumpedCrash)
      << outcome_name(result.outcome);
  EXPECT_EQ(result.cause, CrashCause::InvalidOpcode);
  EXPECT_EQ(result.crash_subsystem, kernel::Subsystem::Mm);
  EXPECT_FALSE(result.propagated);
  EXPECT_LT(result.latency_cycles, 10u)
      << "the ud2 executes immediately after the reversed branch";
}

TEST(Injector, DisasmBeforeAfterRecorded) {
  const kernel::KernelFunction* fn = image().function("pipe_read");
  const auto sites = enumerate_function(image(), *fn);
  const InstructionSite* guard = nullptr;
  for (const InstructionSite& site : sites) {
    if (site.is_cond_branch) {
      guard = &site;
      break;
    }
  }
  ASSERT_NE(guard, nullptr);
  const InjectionSpec spec =
      spec_for("pipe_read", *guard,
               static_cast<std::uint8_t>(condition_byte_index(*guard)), 0,
               "pipe", Campaign::IncorrectBranch);
  const InjectionResult result = shared_injector().run_one(spec);
  EXPECT_FALSE(result.disasm_before.empty());
  EXPECT_FALSE(result.disasm_after.empty());
  EXPECT_NE(result.disasm_before, result.disasm_after)
      << "condition reversal changes the mnemonic";
}

TEST(Injector, SameSpecIsDeterministic) {
  const kernel::KernelFunction* fn = image().function("pipe_read");
  const auto sites = enumerate_function(image(), *fn);
  const InjectionSpec spec = spec_for("pipe_read", sites[2], 0, 5, "pipe",
                                      Campaign::RandomNonBranch);
  const InjectionResult a = shared_injector().run_one(spec);
  const InjectionResult b = shared_injector().run_one(spec);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.activation_cycle, b.activation_cycle);
  EXPECT_EQ(a.cause, b.cause);
  EXPECT_EQ(a.latency_cycles, b.latency_cycles);
}

TEST(Injector, ChainedEngineFlipSeversChainsAndMatchesStep) {
  // run_one's flip site invalidates the flipped page's cached blocks,
  // which with chaining also severs every link into them: the chained
  // injector must land on the same outcome, activation cycle, and
  // latency as the stepper for the same spec.
  const kernel::KernelFunction* fn = image().function("pipe_read");
  ASSERT_NE(fn, nullptr);
  const auto sites = enumerate_function(image(), *fn);
  const InjectionSpec spec = spec_for("pipe_read", sites[2], 0, 5, "pipe",
                                      Campaign::RandomNonBranch);
  InjectorOptions step_options;
  step_options.exec_engine = machine::ExecEngine::Step;
  InjectorOptions chain_options;
  chain_options.exec_engine = machine::ExecEngine::Chained;
  Injector step_inj(step_options);
  Injector chain_inj(chain_options);

  const InjectionResult a = step_inj.run_one(spec);
  const InjectionResult b = chain_inj.run_one(spec);
  EXPECT_EQ(a.outcome, b.outcome) << outcome_name(b.outcome);
  EXPECT_EQ(a.activation_cycle, b.activation_cycle);
  EXPECT_EQ(a.cause, b.cause);
  EXPECT_EQ(a.latency_cycles, b.latency_cycles);
  EXPECT_EQ(a.propagated, b.propagated);

  EXPECT_GT(chain_inj.perf_stats().chain_follows, 0u);
  EXPECT_GE(chain_inj.perf_stats().block_invalidations, 1u)
      << "the flip site must invalidate the cached block under it";
  EXPECT_EQ(step_inj.perf_stats().chain_follows, 0u);
  EXPECT_EQ(step_inj.perf_stats().block_ops, 0u);
}

TEST(Injector, MemfastEngineFlipMatchesStepOnDataAndBranchSites) {
  // The inline ("memfast") guest data path now lives in the chained
  // engine; this checks it on two hazards: a data-site flip landing on
  // a page whose translation sits in the TLB the inline data path
  // reads (the version bump must still invalidate the cached trace —
  // the TLB caches translations, never bytes), and a reversed
  // conditional branch whose flipped direction must take the other
  // chain-link slot.  The chained injector must land on exactly the
  // stepper's outcome, activation cycle, and fault latency — which
  // includes the EFLAGS-driven branch decisions after the flip.
  const kernel::KernelFunction* fn = image().function("pipe_read");
  ASSERT_NE(fn, nullptr);
  const auto sites = enumerate_function(image(), *fn);
  const InstructionSite* branch_site = nullptr;
  for (const InstructionSite& site : sites) {
    if (site.is_cond_branch) {
      branch_site = &site;
      break;
    }
  }
  ASSERT_NE(branch_site, nullptr);

  const InjectionSpec specs[] = {
      spec_for("pipe_read", sites[2], 0, 5, "pipe",
               Campaign::RandomNonBranch),
      spec_for("pipe_read", *branch_site,
               static_cast<std::uint8_t>(condition_byte_index(*branch_site)),
               0, "pipe", Campaign::IncorrectBranch),
  };
  InjectorOptions step_options;
  step_options.exec_engine = machine::ExecEngine::Step;
  InjectorOptions chain_options;
  chain_options.exec_engine = machine::ExecEngine::Chained;
  Injector step_inj(step_options);
  Injector chain_inj(chain_options);

  for (const InjectionSpec& spec : specs) {
    SCOPED_TRACE(spec.campaign == Campaign::IncorrectBranch ? "branch"
                                                            : "data");
    const InjectionResult a = step_inj.run_one(spec);
    const InjectionResult b = chain_inj.run_one(spec);
    EXPECT_EQ(a.outcome, b.outcome) << outcome_name(b.outcome);
    EXPECT_EQ(a.activation_cycle, b.activation_cycle);
    EXPECT_EQ(a.cause, b.cause);
    EXPECT_EQ(a.latency_cycles, b.latency_cycles);
    EXPECT_EQ(a.propagated, b.propagated);
  }

  EXPECT_GT(chain_inj.perf_stats().chain_follows, 0u);
  EXPECT_GE(chain_inj.perf_stats().block_invalidations, 1u)
      << "the flip site must invalidate the cached block under it";
  EXPECT_EQ(step_inj.perf_stats().chain_follows, 0u);
  EXPECT_EQ(step_inj.perf_stats().block_ops, 0u);
}

TEST(Campaign, SmallCampaignCProducesPlausibleMix) {
  CampaignConfig config;
  config.campaign = Campaign::IncorrectBranch;
  config.functions = {"pipe_read", "pipe_write", "schedule", "sys_read",
                      "do_generic_file_read"};
  CampaignRun run =
      run_campaign(shared_injector(), profile::default_profile(), config);
  ASSERT_GT(run.results.size(), 10u);
  EXPECT_EQ(run.functions_targeted, 5u);

  std::size_t activated = 0;
  for (const InjectionResult& r : run.results) {
    if (r.outcome != Outcome::NotActivated) ++activated;
  }
  EXPECT_GT(activated, 0u) << "hot-path branches must activate";
}

TEST(Campaign, DefaultFunctionSelection) {
  const auto& prof = profile::default_profile();
  const auto a = default_functions(Campaign::RandomNonBranch, prof, 0.95);
  const auto c = default_functions(Campaign::IncorrectBranch, prof, 0.95);
  EXPECT_FALSE(a.empty());
  EXPECT_GE(c.size(), a.size()) << "branch campaigns widen the list";
}

}  // namespace
}  // namespace kfi::inject
