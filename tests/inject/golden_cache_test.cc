// GoldenCache built-once semantics: golden artifacts are computed
// exactly once per workload no matter how many threads, Injectors, or
// campaigns share the cache, and every borrower sees the same immutable
// bundle.
#include "inject/golden.h"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/expectations.h"
#include "inject/campaign.h"
#include "inject/injector.h"
#include "profile/profile.h"

namespace kfi::inject {
namespace {

std::set<std::string> campaign_workloads(Campaign campaign) {
  const std::vector<InjectionSpec> targets = campaign_targets(
      profile::default_profile(), check::smoke_config(campaign), nullptr);
  std::set<std::string> workloads;
  for (const InjectionSpec& spec : targets) workloads.insert(spec.workload);
  return workloads;
}

TEST(GoldenCache, ConcurrentRequestsBuildEachWorkloadOnce) {
  GoldenCache cache;
  const std::vector<std::string> names = {"pipe", "syscall", "pipe",
                                          "syscall"};
  std::vector<const WorkloadGolden*> seen[2];
  std::vector<std::thread> threads;
  std::mutex mutex;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (const std::string& name : names) {
        const WorkloadGolden& artifact = cache.workload(name);
        EXPECT_TRUE(artifact.golden.ok);
        EXPECT_FALSE(artifact.ladder.empty());
        EXPECT_NE(artifact.boot, nullptr);
        const std::lock_guard<std::mutex> lock(mutex);
        seen[name == "pipe" ? 0 : 1].push_back(&artifact);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Two distinct workloads requested 32 times from 8 threads: exactly
  // two builds, and every request got the same immutable bundle.
  EXPECT_EQ(cache.golden_builds(), 2u);
  for (const auto& group : seen) {
    for (const WorkloadGolden* artifact : group) {
      EXPECT_EQ(artifact, group.front());
    }
  }
}

TEST(GoldenCache, CampaignsShareOneWarmupAcrossInjectorsAndThreads) {
  const auto& prof = profile::default_profile();
  auto cache = std::make_shared<GoldenCache>();

  CampaignConfig config_a = check::smoke_config(Campaign::RandomNonBranch);
  config_a.threads = 4;
  Injector first(cache);
  run_campaign(first, prof, config_a);
  const std::set<std::string> workloads_a =
      campaign_workloads(Campaign::RandomNonBranch);
  // Four workers, one golden build per distinct workload — not per
  // worker (the pre-cache behavior this test pins down).
  EXPECT_EQ(cache->golden_builds(), workloads_a.size());

  CampaignConfig config_c = check::smoke_config(Campaign::IncorrectBranch);
  config_c.threads = 4;
  Injector second(cache);
  run_campaign(second, prof, config_c);
  std::set<std::string> all = workloads_a;
  const std::set<std::string> workloads_c =
      campaign_workloads(Campaign::IncorrectBranch);
  all.insert(workloads_c.begin(), workloads_c.end());
  // The second campaign (fresh Injector, same cache) only pays for
  // workloads the first never touched.
  EXPECT_EQ(cache->golden_builds(), all.size());
}

TEST(GoldenCache, BuildWorkloadsOnTwoThreadsBuildsEachOnceAndReportsEach) {
  GoldenCache cache;
  const std::vector<std::string> names = {"pipe", "syscall", "looper"};
  std::vector<const WorkloadGolden*> reported(names.size(), nullptr);
  cache.build_workloads(names, 2,
                        [&](std::size_t i, const WorkloadGolden& artifact) {
                          reported[i] = &artifact;  // one writer per slot
                        });
  EXPECT_EQ(cache.golden_builds(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(reported[i], &cache.workload(names[i])) << names[i];
  }
  // Already built: a second pass is lookups only.
  cache.build_workloads(names, 2);
  EXPECT_EQ(cache.golden_builds(), names.size());
}

TEST(GoldenCache, BuildWorkloadsRethrowsAFailedBuildOnTheCaller) {
  GoldenCache cache;
  const std::vector<std::string> names = {"pipe", "no_such_workload",
                                          "syscall"};
  EXPECT_THROW(cache.build_workloads(names, 2), std::runtime_error);
  // A failed build leaves its entry unbuilt; the others stay usable.
  EXPECT_TRUE(cache.workload("pipe").golden.ok);
}

}  // namespace
}  // namespace kfi::inject
