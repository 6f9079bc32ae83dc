// GoldenCache built-once semantics: golden artifacts are computed
// exactly once per workload no matter how many threads, Injectors, or
// campaigns share the cache, and every borrower sees the same immutable
// bundle.  The cache holds one full image, every other snapshot is a
// delta against it, and one Injector machine serves every workload.
#include "inject/golden.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/store.h"
#include "check/expectations.h"
#include "fsutil/kfs_format.h"
#include "inject/campaign.h"
#include "inject/injector.h"
#include "profile/profile.h"
#include "serve/bundle.h"
#include "vm/layout.h"
#include "workloads/workloads.h"

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

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(GoldenCache, ChainedCaptureMatchesSteppedCapture) {
  // The capture pass records touch windows, syscall exits, liveness and
  // the ladder on whichever engine the cache runs.  Every byte a bundle
  // serializes — touch windows, coverage, footprint, dead bits, ladder,
  // syscall exits, disk verdict — and the base file must not depend on
  // it, on either kernel.
  std::vector<std::string> names;
  for (const workloads::Workload& w : workloads::all_workloads()) {
    names.push_back(w.name);
  }
  ASSERT_EQ(names.size(), 9u);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("kfi_golden_capture_test_" + std::to_string(::getpid()));
  // One header for both, its engine fixed so the bytes do not follow
  // KFI_EXEC: the engine the files were captured on is the only
  // difference under test.
  InjectorOptions header;
  header.exec_engine = machine::ExecEngine::Chained;
  // The seal trailers of the base file and the nine bundles, in `names`
  // order, per kernel.  Both engines must reproduce these exact bytes,
  // so a capture change that moves them alike fails here too.
  const std::vector<std::uint64_t> pinned[2] = {
      {0xe98366628b0b0af8ULL, 0x84ef0571274fb897ULL, 0x74a5f5194ec6486aULL,
       0xdce45007b4ee5e38ULL, 0xd6f5b0cb98ce34e2ULL, 0x805c7beb42cc478bULL,
       0x77c9a518cfce1fd5ULL, 0x6fd86de307532c54ULL, 0xc16946cfdc546468ULL,
       0xeb89aace2076e9b5ULL},
      {0x6ff9b4a410507a03ULL, 0x3392bf3bdf8d23caULL, 0xdbb693d3e04f1271ULL,
       0xed5c5d2f1f8b9b0aULL, 0x771dcb3b8dbfb1a0ULL, 0x73f4899370f3b6c0ULL,
       0x796c679928c98c8fULL, 0x3876a881ff9598b8ULL, 0x86d77a1a9b4ed9ffULL,
       0x7fb6a3b00a39fee0ULL},
  };
  int kernel_index = 0;
  for (const kernel::KernelImage* image :
       {&kernel::built_kernel(), &kernel::built_hardened_kernel()}) {
    std::vector<std::vector<std::uint8_t>> files[2];
    for (const machine::ExecEngine engine :
         {machine::ExecEngine::Step, machine::ExecEngine::Chained}) {
      const bool chained = engine == machine::ExecEngine::Chained;
      InjectorOptions options;
      options.exec_engine = engine;
      GoldenCache cache(options, image);
      cache.build_workloads(names, 1);
      std::filesystem::create_directories(dir);
      const std::string base_file = (dir / "base.kfbs").string();
      const std::optional<std::uint64_t> base_hash =
          serve::write_base(base_file, names[0], *cache.base(), header, 0);
      ASSERT_TRUE(base_hash.has_value());
      files[chained].push_back(file_bytes(base_file));
      std::vector<std::uint64_t> trailers = {*base_hash};
      for (const std::string& name : names) {
        const std::string path = (dir / (name + ".kfib")).string();
        const std::optional<std::uint64_t> trailer = serve::write_bundle(
            path, name, cache.workload(name), header, 0, *base_hash);
        ASSERT_TRUE(trailer.has_value());
        trailers.push_back(*trailer);
        files[chained].push_back(file_bytes(path));
      }
      std::filesystem::remove_all(dir);
      EXPECT_GT(cache.capture_mcycles_per_s(), 0.0);
      EXPECT_EQ(trailers, pinned[kernel_index])
          << (chained ? "chained" : "step") << " capture";
    }
    ++kernel_index;
    ASSERT_EQ(files[0].size(), names.size() + 1);
    ASSERT_EQ(files[1].size(), names.size() + 1);
    for (std::size_t i = 0; i < files[0].size(); ++i) {
      SCOPED_TRACE(i == 0 ? "base" : names[i - 1]);
      EXPECT_FALSE(files[0][i].empty());
      EXPECT_TRUE(files[0][i] == files[1][i]);
    }
  }
}

// The smoke A/B/C workloads, sorted.
std::vector<std::string> smoke_abc_workloads() {
  std::set<std::string> all;
  for (const Campaign campaign :
       {Campaign::RandomNonBranch, Campaign::RandomBranch,
        Campaign::IncorrectBranch}) {
    const std::set<std::string> some = campaign_workloads(campaign);
    all.insert(some.begin(), some.end());
  }
  return {all.begin(), all.end()};
}

TEST(GoldenCache, SmokeAbcHoldsOneFullImageAndDeltasAgainstIt) {
  GoldenCache cache;
  const std::vector<std::string> names = smoke_abc_workloads();
  ASSERT_EQ(names.size(), 4u);
  cache.build_workloads(names, 1);
  const std::shared_ptr<const machine::BaseImage> base = cache.base();
  ASSERT_NE(base, nullptr);
  EXPECT_FALSE(base->mem.is_delta());
  EXPECT_FALSE(base->disk.is_delta());

  for (const std::string& name : names) {
    const WorkloadGolden& artifact = cache.workload(name);
    // The only full snapshot is the base: each boot state stores at
    // most the two pages its workload image is parked in, and no disk.
    const machine::Checkpoint& boot = artifact.boot->state;
    EXPECT_EQ(artifact.boot->base, base) << name;
    ASSERT_TRUE(boot.mem.is_delta()) << name;
    ASSERT_TRUE(boot.disk.is_delta()) << name;
    EXPECT_EQ(boot.mem.base(), &base->mem) << name;
    EXPECT_EQ(boot.disk.base(), &base->disk) << name;
    EXPECT_LE(boot.mem.storage_bytes(), 2u * vm::kPageSize) << name;
    EXPECT_EQ(boot.disk.storage_bytes(), 0u) << name;
    for (const machine::Checkpoint& rung : artifact.ladder) {
      EXPECT_EQ(rung.mem.base(), &base->mem) << name;
      EXPECT_EQ(rung.disk.base(), &base->disk) << name;
    }
  }
  // The first workload built is the base: its boot delta is empty.
  EXPECT_EQ(cache.workload(names.front()).boot->state.mem.storage_bytes(),
            0u);

  // The held bytes, pinned: the base is exactly RAM plus disk, and a
  // change that brings back per-workload images or moves what a rung
  // stores fails here on every engine.
  const GoldenCache::HeldBytes held = cache.held_bytes();
  EXPECT_EQ(held.base, std::uint64_t{vm::kRamSize} +
                           std::uint64_t{fsutil::kDefaultBlocks} *
                               fsutil::kBlockSize);
  EXPECT_EQ(held.boots, 6u * vm::kPageSize);
  EXPECT_EQ(held.ladders, 5881856u);
}

TEST(GoldenCache, BaseWorkloadDoesNotChangeRecords) {
  // The same workloads built in opposite orders hold different base
  // images and deltas, and yield identical records.
  const std::vector<std::string> names = smoke_abc_workloads();
  const std::vector<std::string> reversed(names.rbegin(), names.rend());
  const CampaignConfig config = [] {
    CampaignConfig c = check::smoke_config(Campaign::IncorrectBranch);
    c.threads = 1;
    return c;
  }();
  std::vector<std::uint64_t> folds;
  std::vector<std::uint64_t> first_delta;
  for (const std::vector<std::string>* order : {&names, &reversed}) {
    auto cache = std::make_shared<GoldenCache>();
    cache->build_workloads(*order, 1);
    first_delta.push_back(
        cache->workload(names.front()).boot->state.mem.storage_bytes());
    Injector injector(cache);
    const CampaignRun run =
        run_campaign(injector, profile::default_profile(), config);
    folds.push_back(analysis::results_digest({run}));
  }
  EXPECT_EQ(first_delta[0], 0u);  // its image is the base
  EXPECT_GT(first_delta[1], 0u);  // the last name's image is
  EXPECT_EQ(folds[0], folds[1]);
}

// The first spec of `targets` the golden run executes whose workload is
// not `other`.
const InjectionSpec* covered_spec(const std::vector<InjectionSpec>& targets,
                                  GoldenCache& cache,
                                  const std::string& other) {
  for (const InjectionSpec& spec : targets) {
    if (spec.workload != other &&
        cache.workload(spec.workload).first_touch.count(spec.instr_addr) !=
            0) {
      return &spec;
    }
  }
  return nullptr;
}

std::uint64_t record_fold(const InjectionResult& result) {
  analysis::ResultDigest digest;
  digest.add(result);
  return digest.value();
}

TEST(GoldenCache, OneInjectorMachineServesEveryWorkload) {
  auto cache = std::make_shared<GoldenCache>();
  const std::vector<std::string> names = smoke_abc_workloads();
  cache->build_workloads(names, 1);
  const std::vector<InjectionSpec> targets =
      campaign_targets(profile::default_profile(),
                       check::smoke_config(Campaign::RandomNonBranch),
                       nullptr);
  const InjectionSpec* w = covered_spec(targets, *cache, "");
  ASSERT_NE(w, nullptr);
  const InjectionSpec* v = covered_spec(targets, *cache, w->workload);
  ASSERT_NE(v, nullptr);

  // W -> V -> W on one injector: one machine, and every record equals
  // the one a fresh injector makes.
  Injector injector(cache);
  std::vector<std::uint64_t> folds;
  for (const InjectionSpec* spec : {w, v, w}) {
    folds.push_back(record_fold(injector.run_one(*spec)));
    Injector fresh(cache);
    EXPECT_EQ(folds.back(), record_fold(fresh.run_one(*spec)))
        << spec->workload;
  }
  EXPECT_EQ(folds[0], folds[2]);
  EXPECT_EQ(injector.stats().machines, 1u);

  // The machine underneath: after W -> V -> W switches, restore() and a
  // rung restore land the state a freshly adopted machine holds.
  const WorkloadGolden& wa = cache->workload(w->workload);
  const WorkloadGolden& va = cache->workload(v->workload);
  const auto make = [&] {
    return std::make_unique<machine::Machine>(
        cache->image(), workloads::built_workload(v->workload),
        cache->root_disk());
  };
  auto machine = make();
  machine->adopt_boot(wa.boot);
  machine->run(200'000);
  machine->adopt_boot(va.boot);
  machine->run(200'000);
  machine->adopt_boot(wa.boot);
  machine->run(50'000);
  machine->restore();
  auto adopted = make();
  adopted->adopt_boot(wa.boot);
  EXPECT_EQ(machine->state_digest(), adopted->state_digest());
  ASSERT_FALSE(wa.ladder.empty());
  machine::CheckpointMemo memo;
  machine::CheckpointMemo fresh_memo;
  machine->restore_checkpoint(wa.ladder.back(), memo);
  adopted->restore_checkpoint(wa.ladder.back(), fresh_memo);
  EXPECT_EQ(machine->state_digest(), adopted->state_digest());
  machine->run(100'000);
  adopted->run(100'000);
  EXPECT_EQ(machine->state_digest(), adopted->state_digest());
}

}  // namespace
}  // namespace kfi::inject
