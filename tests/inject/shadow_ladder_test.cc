// Shadow ladders (DESIGN.md §7): a D/E trigger whose breakpoint exit
// drops an in-flight timer tick compares its run against the
// fault-free continuation of the tick-dropped timeline, built once per
// (workload, next_timer at the trigger) by whichever trigger comes
// first.  These tests re-derive every such continuation on a private
// machine and check it against the ladder the injector built, and
// check that building a ladder inside a run leaves the run's record
// and forensics window exactly as a run that finds it built.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "check/expectations.h"
#include "check/replay.h"
#include "inject/campaign.h"
#include "inject/injector.h"
#include "profile/profile.h"
#include "trace/trace.h"

namespace kfi::inject {
namespace {

constexpr std::size_t kNoMask = static_cast<std::size_t>(-1);

// The smoke population of the two shadowed fault models, in campaign
// order (D, then E).
std::vector<InjectionSpec> smoke_de_specs() {
  std::vector<InjectionSpec> specs;
  for (const Campaign campaign :
       {Campaign::RegisterFile, Campaign::KernelData}) {
    const std::vector<InjectionSpec> targets = campaign_targets(
        profile::default_profile(), check::smoke_config(campaign), nullptr);
    specs.insert(specs.end(), targets.begin(), targets.end());
  }
  return specs;
}

// A private worker machine for one workload, replaying the injector's
// pre-trigger path: resume from the same ladder rung, run to the
// trigger breakpoint with the same watchdog budget.
class TriggerProbe {
 public:
  TriggerProbe(GoldenCache& cache, const std::string& workload)
      : artifact_(cache.workload(workload)) {
    machine::MachineOptions options;
    options.exec_engine = cache.options().exec_engine;
    machine_ = std::make_unique<machine::Machine>(
        cache.image(), workloads::built_workload(workload), cache.root_disk(),
        options);
    machine_->adopt_boot(artifact_.boot);
    memos_.resize(artifact_.ladder.size());
    budget_ = inject::run_budget(artifact_.golden.cycles);
  }

  machine::Machine& machine() { return *machine_; }
  const std::vector<machine::Checkpoint>& rungs() const {
    return artifact_.ladder;
  }
  std::uint64_t deadline() const {
    return machine_->snapshot_cycles() + budget_;
  }

  // Runs to the trigger at `addr`; the breakpoint is left disarmed.
  machine::RunResult reach(std::uint32_t addr) {
    const auto& rungs = artifact_.ladder;
    const std::uint64_t first = artifact_.first_touch.at(addr).first;
    std::size_t idx = rungs.size();
    for (std::size_t i = 0; i < rungs.size() && rungs[i].cycle <= first; ++i) {
      idx = i;
    }
    if (idx < rungs.size()) {
      machine_->restore_checkpoint(rungs[idx], memos_[idx]);
    } else {
      machine_->restore();
    }
    const std::uint64_t resumed =
        machine_->cpu().cycles() - machine_->snapshot_cycles();
    machine_->cpu().arm_breakpoint(0, addr);
    const machine::RunResult run = machine_->run(budget_ - resumed);
    machine_->cpu().disarm_breakpoint(0);
    return run;
  }

 private:
  const WorkloadGolden& artifact_;
  std::unique_ptr<machine::Machine> machine_;
  std::vector<machine::CheckpointMemo> memos_;
  std::uint64_t budget_ = 0;
};

TEST(ShadowLadder, EveryDroppedTriggerContinuesOntoItsKeysShadow) {
  // Campaign order runs each key's earliest trigger first, so that one
  // builds.  Running the population backwards instead makes a late
  // trigger build every ladder the earlier ones then take, and must
  // not change a single record.
  auto cache = std::make_shared<GoldenCache>();
  Injector forward(cache);
  Injector injector(cache);
  for (const Campaign campaign :
       {Campaign::RegisterFile, Campaign::KernelData}) {
    CampaignConfig config = check::smoke_config(campaign);
    config.threads = 1;
    const CampaignRun run =
        run_campaign(forward, profile::default_profile(), config);
    const std::vector<InjectionSpec> targets =
        campaign_targets(profile::default_profile(), config, nullptr);
    const std::vector<std::size_t> order = campaign_order(injector, targets);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      EXPECT_TRUE(
          check::diff_results(run.results[*it], injector.run_one(targets[*it]))
              .empty())
          << targets[*it].function << " @" << std::hex
          << targets[*it].instr_addr;
    }
  }
  ASSERT_EQ(injector.stats().shadow_builds, forward.stats().shadow_builds);
  EXPECT_GT(injector.stats().shadow_reconverged, 0u);

  std::map<std::string, std::unique_ptr<TriggerProbe>> probes;
  std::set<std::pair<std::string, std::uint32_t>> seen;
  std::size_t dropped = 0;
  std::size_t earlier_than_builder = 0;
  std::size_t compared = 0;
  for (const InjectionSpec& spec : smoke_de_specs()) {
    if (injector.first_touch(spec.workload).count(spec.instr_addr) == 0) {
      continue;
    }
    if (!seen.emplace(spec.workload, spec.instr_addr).second) continue;
    auto& probe = probes[spec.workload];
    if (probe == nullptr) {
      probe = std::make_unique<TriggerProbe>(*injector.cache(), spec.workload);
    }
    machine::Machine& machine = probe->machine();
    const machine::RunResult trigger = probe->reach(spec.instr_addr);
    ASSERT_EQ(trigger.exit, machine::RunExit::Breakpoint);
    if (!trigger.tick_dropped) continue;
    ++dropped;
    const std::uint64_t trigger_cycle = machine.cpu().cycles();
    const ShadowLadder* shadow =
        injector.shadow(spec.workload, machine.next_timer());
    ASSERT_NE(shadow, nullptr) << spec.function << " @" << std::hex
                               << spec.instr_addr;
    if (trigger_cycle < shadow->built_at) ++earlier_than_builder;

    // The fault-free continuation, stopped at every rung ahead exactly
    // as an injected run is.
    const auto& rungs = probe->rungs();
    std::size_t expected = 0;
    for (const auto& entry : shadow->rungs) {
      if (rungs[entry.first].cycle > trigger_cycle) ++expected;
    }
    std::size_t matched = 0;
    for (std::size_t idx = 0; idx < rungs.size() && matched < expected;
         ++idx) {
      if (rungs[idx].cycle <= machine.cpu().cycles()) continue;
      if (rungs[idx].cycle >= probe->deadline()) break;
      const machine::RunResult run = machine.run(
          rungs[idx].cycle - machine.cpu().cycles(), /*resumable=*/true);
      ASSERT_EQ(run.exit, machine::RunExit::Hung);
      ASSERT_GE(machine.cpu().cycles(), rungs[idx].cycle);
      const auto it = shadow->rungs.find(idx);
      if (it == shadow->rungs.end()) continue;
      EXPECT_TRUE(machine.state_matches(it->second, machine::CheckpointMemo{},
                                        kNoMask))
          << spec.function << " @" << std::hex << spec.instr_addr
          << std::dec << " rung " << idx;
      ++matched;
    }
    EXPECT_EQ(matched, expected) << spec.function;
    compared += matched;
  }
  EXPECT_GT(dropped, injector.stats().shadow_builds);
  EXPECT_GT(earlier_than_builder, 0u);
  EXPECT_GT(compared, 0u);
}

// Runs `spec` and returns its record and forensics window.
std::pair<InjectionResult, std::vector<trace::Event>> traced_run(
    Injector& injector, const InjectionSpec& spec) {
  InjectionResult result = injector.run_one(spec);
  return {std::move(result), injector.trace()->events()};
}

bool same_events(const std::vector<trace::Event>& x,
                 const std::vector<trace::Event>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].kind != y[i].kind || x[i].cycle != y[i].cycle ||
        x[i].a != y[i].a || x[i].b != y[i].b || x[i].c != y[i].c ||
        x[i].d != y[i].d) {
      return false;
    }
  }
  return true;
}

TEST(ShadowLadder, BuildingRunMatchesRunThatFindsTheLadder) {
  InjectorOptions options;
  options.trace_capacity = trace::TraceBuffer::kDefaultCapacity;
  auto cache = std::make_shared<GoldenCache>(options);

  // Group the smoke register faults by shadow key (one probe run each),
  // and keep one tick-keeping fault per workload: both injectors run it
  // right before the compared run, so its restore event (stamped with
  // the cycle the machine stood at) starts both windows alike.
  std::map<std::pair<std::string, std::uint64_t>, std::vector<InjectionSpec>>
      by_key;
  std::map<std::string, InjectionSpec> keeps_tick;
  std::map<std::string, std::unique_ptr<TriggerProbe>> probes;
  for (const InjectionSpec& spec : smoke_de_specs()) {
    if (spec.model != FaultModel::RegisterBit) continue;
    if (cache->workload(spec.workload).first_touch.count(spec.instr_addr) ==
        0) {
      continue;
    }
    auto& probe = probes[spec.workload];
    if (probe == nullptr) {
      probe = std::make_unique<TriggerProbe>(*cache, spec.workload);
    }
    if (!probe->reach(spec.instr_addr).tick_dropped) {
      keeps_tick.emplace(spec.workload, spec);
      continue;
    }
    by_key[{spec.workload, probe->machine().next_timer()}].push_back(spec);
  }

  std::size_t pairs = 0;
  for (const auto& [key, specs] : by_key) {
    const auto plain = keeps_tick.find(key.first);
    if (specs.size() < 2 || plain == keeps_tick.end()) continue;
    const InjectionSpec& builder = specs.front();
    for (std::size_t i = 1; i < specs.size() && i < 4; ++i) {
      const InjectionSpec& spec = specs[i];
      Injector builds(cache);
      builds.run_one(plain->second);
      const auto built = traced_run(builds, spec);
      ASSERT_EQ(builds.stats().shadow_builds, 1u);

      Injector finds(cache);
      finds.run_one(builder);
      ASSERT_EQ(finds.stats().shadow_builds, 1u);
      finds.run_one(plain->second);
      const auto found = traced_run(finds, spec);
      ASSERT_EQ(finds.stats().shadow_builds, 1u);

      EXPECT_TRUE(check::diff_results(built.first, found.first).empty())
          << spec.function << " @" << std::hex << spec.instr_addr;
      EXPECT_TRUE(same_events(built.second, found.second))
          << spec.function << " @" << std::hex << spec.instr_addr;
      EXPECT_FALSE(built.second.empty());
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 0u);
}

}  // namespace
}  // namespace kfi::inject
