// Fault-model campaigns D/E/F: register-file bit flips, kernel-data
// bit flips, and syscall-errno injection.  Covers target generation
// (every spec carries its model), the per-model injection semantics
// (exactly one bit flipped, footprint resolution, forced -errno), and
// the cross-engine identity contract the instruction campaigns already
// pin.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/expectations.h"
#include "inject/campaign.h"
#include "inject/injector.h"
#include "inject/targets.h"
#include "isa/isa.h"
#include "kernel/koffsets.h"
#include "profile/profile.h"
#include "trace/trace.h"
#include "vm/layout.h"

namespace kfi::inject {
namespace {

const kernel::KernelImage& image() { return kernel::built_kernel(); }

Injector& shared_injector() {
  static Injector injector;
  return injector;
}

// A trigger site the pipe workload demonstrably executes (the same
// site the instruction-campaign tests inject at).
InstructionSite covered_site() {
  const kernel::KernelFunction* fn = image().function("pipe_read");
  const auto sites = enumerate_function(image(), *fn);
  return sites[2];
}

InjectionSpec register_spec(std::uint8_t target_reg, std::uint8_t bit) {
  const InstructionSite site = covered_site();
  InjectionSpec spec;
  spec.campaign = Campaign::RegisterFile;
  spec.model = FaultModel::RegisterBit;
  spec.function = "pipe_read";
  spec.subsystem = image().function("pipe_read")->subsystem;
  spec.instr_addr = site.addr;
  spec.instr_len = static_cast<std::uint8_t>(site.bytes.size());
  spec.target_reg = target_reg;
  spec.bit_index = bit;
  spec.workload = "pipe";
  return spec;
}

InjectionSpec data_spec(std::uint32_t data_addr, std::uint32_t data_index,
                        std::uint8_t bit) {
  InjectionSpec spec = register_spec(0, bit);
  spec.campaign = Campaign::KernelData;
  spec.model = FaultModel::DataBit;
  spec.target_reg = 0;
  spec.data_addr = data_addr;
  spec.data_index = data_index;
  return spec;
}

InjectionSpec errno_spec(std::uint32_t errno_value,
                         std::uint32_t data_index) {
  InjectionSpec spec;
  spec.campaign = Campaign::SyscallErrno;
  spec.model = FaultModel::SyscallErrno;
  spec.function = "system_call";
  spec.subsystem = kernel::Subsystem::Arch;
  spec.instr_addr = syscall_return_site(image());
  spec.errno_value = errno_value;
  spec.data_index = data_index;
  spec.workload = "syscall";
  return spec;
}

TEST(FaultModelTargets, EveryCampaignDSpecIsARegisterBitFault) {
  const auto targets = campaign_targets(
      profile::default_profile(),
      check::smoke_config(Campaign::RegisterFile), nullptr);
  ASSERT_FALSE(targets.empty());
  for (const InjectionSpec& spec : targets) {
    EXPECT_EQ(spec.model, FaultModel::RegisterBit);
    EXPECT_LE(spec.target_reg, kEflagsTarget);
    EXPECT_LT(spec.bit_index, 32u);
    if (spec.target_reg == kEflagsTarget) {
      // EFLAGS flips must land on a modeled flag bit, or the flip
      // would be silently dropped by the narrow flag model.
      const std::uint32_t word = 1u << spec.bit_index;
      const std::uint32_t modeled =
          isa::Flags::from_word(word).to_word() & ~(1u << 1);
      EXPECT_EQ(modeled, word) << "bit " << int(spec.bit_index);
    }
  }
}

TEST(FaultModelTargets, EveryCampaignFSpecHitsTheSyscallReturnSite) {
  const std::uint32_t site = syscall_return_site(image());
  ASSERT_NE(site, 0u);
  const auto targets = campaign_targets(
      profile::default_profile(),
      check::smoke_config(Campaign::SyscallErrno), nullptr);
  ASSERT_FALSE(targets.empty());
  for (const InjectionSpec& spec : targets) {
    EXPECT_EQ(spec.model, FaultModel::SyscallErrno);
    EXPECT_EQ(spec.instr_addr, site);
    EXPECT_GT(spec.errno_value, 0u);
    EXPECT_LT(spec.errno_value, 4096u);
  }
}

TEST(FaultModel, RegisterFlipChangesExactlyOneBit) {
  // Under the forensics trace, the InjectFlip event carries the
  // register word before and after: their XOR must be a single bit,
  // and exactly the requested one.
  InjectorOptions options;
  options.trace_capacity = trace::TraceBuffer::kDefaultCapacity;
  Injector injector(options);
  const InjectionSpec spec = register_spec(/*target_reg=*/0, /*bit=*/3);
  const InjectionResult result = injector.run_one(spec);
  EXPECT_NE(result.outcome, Outcome::NotActivated);

  bool saw_flip = false;
  for (const trace::Event& event : injector.trace()->events()) {
    if (event.kind != trace::EventKind::InjectFlip) continue;
    saw_flip = true;
    EXPECT_EQ(event.c ^ event.d, 1u << spec.bit_index);
    EXPECT_EQ(event.b & 0xFFu, spec.bit_index);
    EXPECT_EQ(event.b >> 8, spec.target_reg);
  }
  EXPECT_TRUE(saw_flip) << "no InjectFlip event recorded";
}

TEST(FaultModel, EflagsFlipTargetsAModeledBit) {
  InjectorOptions options;
  options.trace_capacity = trace::TraceBuffer::kDefaultCapacity;
  Injector injector(options);
  const InjectionSpec spec = register_spec(kEflagsTarget, /*bit=*/6);  // ZF
  const InjectionResult result = injector.run_one(spec);
  EXPECT_NE(result.outcome, Outcome::NotActivated);
  bool saw_flip = false;
  for (const trace::Event& event : injector.trace()->events()) {
    if (event.kind != trace::EventKind::InjectFlip) continue;
    saw_flip = true;
    EXPECT_EQ(event.c ^ event.d, 1u << 6);
    EXPECT_EQ(event.b >> 8, static_cast<std::uint32_t>(kEflagsTarget));
  }
  EXPECT_TRUE(saw_flip);
}

TEST(FaultModel, RegisterFlipRederivesIdenticallyAcrossAllEngines) {
  // The cross-engine identity contract extends to the register model:
  // whatever the stepper concludes, the chained engine must re-derive
  // bit for bit.
  const InjectionSpec spec = register_spec(/*target_reg=*/2, /*bit=*/7);
  InjectorOptions step_options;
  step_options.exec_engine = machine::ExecEngine::Step;
  InjectorOptions chain_options;
  chain_options.exec_engine = machine::ExecEngine::Chained;
  Injector step_inj(step_options);
  Injector chain_inj(chain_options);
  const InjectionResult ref = step_inj.run_one(spec);
  const InjectionResult got = chain_inj.run_one(spec);
  EXPECT_EQ(got.outcome, ref.outcome) << outcome_name(got.outcome);
  EXPECT_EQ(got.activation_cycle, ref.activation_cycle);
  EXPECT_EQ(got.cause, ref.cause);
  EXPECT_EQ(got.latency_cycles, ref.latency_cycles);
}

TEST(FaultModel, DataFlipOutsideTheFootprintDoesNotManifest) {
  // A byte no kernel store ever touched (top of RAM) is flipped at
  // trigger time: the run must complete with golden-identical output.
  const std::uint32_t quiet_addr = vm::kRamSize - 64;
  const auto& footprint =
      shared_injector().cache()->workload("pipe").write_footprint;
  ASSERT_FALSE(footprint.empty());
  ASSERT_FALSE(std::binary_search(footprint.begin(), footprint.end(),
                                  quiet_addr));
  const InjectionSpec spec = data_spec(quiet_addr, 0, /*bit=*/5);
  const InjectionResult result = shared_injector().run_one(spec);
  EXPECT_EQ(result.outcome, Outcome::NotManifested)
      << outcome_name(result.outcome);
  EXPECT_EQ(result.data_addr, quiet_addr);
}

TEST(FaultModel, DataFlipResolvesThroughTheWriteFootprint) {
  const auto& footprint =
      shared_injector().cache()->workload("pipe").write_footprint;
  ASSERT_FALSE(footprint.empty());
  const std::uint32_t index = 7;
  const InjectionSpec spec = data_spec(/*data_addr=*/0, index, /*bit=*/0);
  const InjectionResult result = shared_injector().run_one(spec);
  EXPECT_NE(result.outcome, Outcome::NotActivated);
  EXPECT_EQ(result.data_addr, footprint[index % footprint.size()]);

  const InjectionResult again = shared_injector().run_one(spec);
  EXPECT_EQ(again.outcome, result.outcome);
  EXPECT_EQ(again.activation_cycle, result.activation_cycle);
  EXPECT_EQ(again.data_addr, result.data_addr);
}

TEST(FaultModel, ErrnoInjectionForcesTheFailureAndCountsTheCascade) {
  // Inject EBADF into the third successful syscall exit of the syscall
  // workload.  Activation is structural (the golden timeline proves
  // the exit exists), the forced failure is visible to the workload,
  // and the cascade counters are deterministic — pinned here so a
  // drift in syscall accounting fails loudly.
  const InjectionSpec spec = errno_spec(kernel::KE_EBADF, /*data_index=*/2);
  const InjectionResult result = shared_injector().run_one(spec);
  EXPECT_NE(result.outcome, Outcome::NotActivated);
  EXPECT_GT(result.syscalls_after, 0u);

  const InjectionResult again = shared_injector().run_one(spec);
  EXPECT_EQ(again.outcome, result.outcome);
  EXPECT_EQ(again.activation_cycle, result.activation_cycle);
  EXPECT_EQ(again.syscalls_after, result.syscalls_after);
  EXPECT_EQ(again.cascade_syscalls, result.cascade_syscalls);
}

TEST(FaultModel, ErrnoInjectionMatchesAcrossStepAndChained) {
  const InjectionSpec spec = errno_spec(kernel::KE_ENOMEM, /*data_index=*/0);
  InjectorOptions step_options;
  step_options.exec_engine = machine::ExecEngine::Step;
  InjectorOptions fast_options;
  fast_options.exec_engine = machine::ExecEngine::Chained;
  Injector step_inj(step_options);
  Injector fast_inj(fast_options);
  const InjectionResult a = step_inj.run_one(spec);
  const InjectionResult b = fast_inj.run_one(spec);
  EXPECT_EQ(a.outcome, b.outcome) << outcome_name(b.outcome);
  EXPECT_EQ(a.activation_cycle, b.activation_cycle);
  EXPECT_EQ(a.syscalls_after, b.syscalls_after);
  EXPECT_EQ(a.cascade_syscalls, b.cascade_syscalls);
}

}  // namespace
}  // namespace kfi::inject
