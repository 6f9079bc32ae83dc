// The process-sharded campaign service: the sharded digest is
// bit-identical to the in-process run_campaign() path at every worker
// count, a killed campaign resumes from exactly its completed shards,
// and a corrupted shard artifact or golden bundle is rejected by its
// checksum trailer and re-run or rebuilt.  The campaignd_smoke_sharded and campaignd_smoke_def ctest
// entries gate the same contracts on the full smoke triples through
// kfi_campaignd; here they run on a trimmed two-slot campaign so the
// whole suite stays in tier-1 time.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/io.h"
#include "analysis/store.h"
#include "check/expectations.h"
#include "check/replay.h"
#include "inject/injector.h"
#include "kernel/build.h"
#include "profile/profile.h"
#include "serve/bundle.h"
#include "support/fsio.h"
#include "support/serial.h"
#include "temp_dir.h"

namespace kfi::serve {
namespace {

using test::fresh_dir;
using test::temp_path;

// Two campaign slots (a random-bit slot and a reversed-branch slot)
// over a pared-down function list: big enough to span multiple
// workloads, shards, and the A/C slot boundary; small enough to run
// many service invocations per suite.
std::vector<inject::CampaignConfig> test_campaigns() {
  inject::CampaignConfig a = check::smoke_config(
      inject::Campaign::RandomNonBranch);
  a.functions = {"pipe_read"};
  inject::CampaignConfig c = check::smoke_config(
      inject::Campaign::IncorrectBranch);
  c.functions = {"pipe_read", "free_pages"};
  return {a, c};
}

ServiceConfig base_config(const std::string& dir) {
  ServiceConfig config;
  config.campaigns = test_campaigns();
  config.dir = dir;
  // All tests of one process share one bundle directory: the first
  // prepare pays for boot + golden + ladder, every later one adopts
  // from disk.
  config.bundle_dir = temp_path("kfi_service_test_bundles");
  config.workers = 1;
  return config;
}

// The in-process reference, computed once per suite.
const std::vector<inject::CampaignRun>& reference_runs() {
  static const std::vector<inject::CampaignRun> runs = [] {
    inject::Injector injector(inject::InjectorOptions{});
    std::vector<inject::CampaignRun> out;
    for (inject::CampaignConfig config : test_campaigns()) {
      config.threads = 1;
      out.push_back(inject::run_campaign(
          injector, profile::default_profile(), config));
    }
    return out;
  }();
  return runs;
}

std::uint64_t reference_digest() {
  return analysis::results_digest(reference_runs());
}

TEST(Service, SingleWorkerMatchesInProcessResultForResult) {
  ServiceConfig config = base_config(fresh_dir("kfi_service_test_w1"));
  const ServiceResult result = run_service(config, /*materialize=*/true);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.digest, reference_digest());
  ASSERT_EQ(result.runs.size(), reference_runs().size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const check::RunComparison cmp =
        check::compare_runs(reference_runs()[i], result.runs[i]);
    EXPECT_TRUE(cmp.identical())
        << "campaign slot " << i << ": " << cmp.mismatches.size()
        << " mismatches of " << cmp.compared;
    total += result.runs[i].results.size();
  }
  EXPECT_EQ(result.total_runs, total);
  EXPECT_GT(result.shard_count, 1u);
  EXPECT_EQ(result.shards_executed, result.shard_count);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(result.corrupt_discarded, 0u);
}

TEST(Service, EveryWorkerCountFoldsTheIdenticalDigest) {
  for (const unsigned workers : {2u, 4u}) {
    ServiceConfig config = base_config(
        fresh_dir("kfi_service_test_w" + std::to_string(workers)));
    config.workers = workers;
    const ServiceResult result = run_service(config);
    ASSERT_TRUE(result.ok) << "workers=" << workers << ": " << result.error;
    EXPECT_EQ(result.digest, reference_digest()) << "workers=" << workers;
    EXPECT_EQ(result.total_runs, reference_runs()[0].results.size() +
                                     reference_runs()[1].results.size());
    // The one shard rule, which the thread path cuts by too.
    EXPECT_EQ(result.shard_count, inject::kShardsPerWorker * workers);
  }
}

TEST(Service, KilledCampaignResumesFromCompletedShards) {
  const std::string dir = fresh_dir("kfi_service_test_resume");
  ServiceConfig config = base_config(dir);

  // First invocation: every worker dies after one shard and the
  // controller gets one wave — a partial campaign on disk.
  ServiceConfig killed = config;
  killed.max_shards_per_worker = 1;
  killed.max_attempts = 1;
  const ServiceResult partial = run_service(killed);
  EXPECT_FALSE(partial.ok);
  EXPECT_EQ(partial.corrupt_discarded, 0u);

  // The artifacts that did land are whole (atomic rename): exactly one
  // shard from the single worker's single completed claim.
  const std::optional<Manifest> manifest = load_manifest(dir);
  ASSERT_TRUE(manifest.has_value());
  const analysis::ShardStore store(dir + "/shards");
  std::uint64_t completed = 0;
  for (std::uint64_t shard = 0; shard < partial.shard_count; ++shard) {
    const std::string path = store.shard_path(shard);
    if (!std::filesystem::exists(path)) continue;
    EXPECT_TRUE(analysis::ShardCursor::open(path, shard, manifest->config_hash)
                    .has_value());
    ++completed;
  }
  EXPECT_EQ(completed, 1u);

  // Second invocation, same config: resumes instead of restarting, and
  // the digest still matches the in-process path bit for bit.
  const ServiceResult resumed = run_service(config);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.digest, reference_digest());
  EXPECT_EQ(resumed.shards_resumed, completed);
  EXPECT_EQ(resumed.shards_executed, resumed.shard_count - completed);
}

TEST(Service, CorruptShardIsRejectedByHashAndReRun) {
  const std::string dir = fresh_dir("kfi_service_test_corrupt");
  ServiceConfig config = base_config(dir);
  const ServiceResult first = run_service(config);
  ASSERT_TRUE(first.ok) << first.error;

  // Flip a byte of the last record in shard 0's artifact, keeping its
  // name — the torn-write / bit-rot case.  Aggregation must refuse it.
  const std::string victim =
      analysis::ShardStore(dir + "/shards").shard_path(0);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto size = static_cast<long>(std::filesystem::file_size(victim));
    const long at = size - static_cast<long>(kSealBytes) - 5;
    char byte = 0;
    f.seekg(at);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x80);
    f.seekp(at);
    f.write(&byte, 1);
  }
  ServiceResult aggregate;
  EXPECT_FALSE(aggregate_campaign(dir, false, aggregate));
  EXPECT_EQ(aggregate.corrupt_discarded, 1u);
  EXPECT_FALSE(std::filesystem::exists(victim));  // discarded

  // The controller re-runs exactly the discarded shard and converges on
  // the same digest.
  const ServiceResult repaired = run_service(config);
  ASSERT_TRUE(repaired.ok) << repaired.error;
  EXPECT_EQ(repaired.digest, reference_digest());
  EXPECT_EQ(repaired.shards_executed, 1u);
  EXPECT_EQ(repaired.shards_resumed, repaired.shard_count - 1);
}

TEST(Service, CorruptBundleIsRebuiltNotAdopted) {
  // A bit flipped in the payload of one reused bundle — snapshot bytes
  // that parse either way.  Preparing again must refuse that bundle and
  // rebuild it, not adopt it and hand its hash to every worker.
  const std::string dir = fresh_dir("kfi_service_test_corrupt_bundle");
  ServiceConfig config = base_config(dir);
  ServiceResult first;
  ASSERT_TRUE(prepare_campaign(config, &first).has_value()) << first.error;
  const std::optional<Manifest> manifest = load_manifest(dir);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_FALSE(manifest->workloads.empty());
  const std::string victim =
      bundle_path(config.bundle_dir, manifest->workloads[0],
                  manifest->options, manifest->kernel_fp);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto size = static_cast<long>(std::filesystem::file_size(victim));
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  config.fresh = true;
  const ServiceResult result = run_service(config);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.bundles_built, 1u);
  EXPECT_EQ(result.bundles_adopted, manifest->workloads.size() - 1);
  EXPECT_EQ(result.digest, reference_digest());
}

// Rewrites the base file at `path` with one RAM payload bit flipped and
// a fresh trailer: a valid base file, but another base than the one the
// bundles and the manifest were recorded against.
void reseal_flipped_base(const std::string& path) {
  std::string bytes = read_file_bytes(path).value_or("");
  ASSERT_GT(bytes.size(), 1024u * 1024u);
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x04);
  const std::uint64_t sum = content_hash(bytes.data(), bytes.size() - 8);
  std::memcpy(&bytes[bytes.size() - 8], &sum, 8);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(Service, BundlesAgainstAnotherBaseAreRebuiltNotAdopted) {
  // Every bundle records the base file's trailer.  Once the base file
  // holds another (valid) image, no kept bundle may be adopted against
  // it: all are rebuilt as deltas against the new base, and the results
  // still equal the in-process reference, whatever that base holds.
  const std::string dir = fresh_dir("kfi_service_test_other_base");
  ServiceConfig config = base_config(dir);
  config.bundle_dir = fresh_dir("kfi_service_test_other_base_bundles");
  ServiceResult first;
  const std::optional<Manifest> manifest = prepare_campaign(config, &first);
  ASSERT_TRUE(manifest.has_value()) << first.error;
  EXPECT_EQ(first.bundles_built, manifest->workloads.size());
  reseal_flipped_base(base_path(config.bundle_dir, manifest->base_workload,
                                manifest->options, manifest->kernel_fp));

  config.fresh = true;
  const ServiceResult result = run_service(config);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.bundles_built, manifest->workloads.size());
  EXPECT_EQ(result.bundles_adopted, 0u);
  EXPECT_EQ(result.digest, reference_digest());
  const std::optional<Manifest> again = load_manifest(dir);
  ASSERT_TRUE(again.has_value());
  EXPECT_NE(again->base_hash, manifest->base_hash);
  const WorkerReport report = run_worker(dir, 0, 1);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.bundle_adoptions, again->workloads.size());
}

TEST(Service, VersionSixBaseFileIsRebuiltNotAdopted) {
  // A sealed base file from before the boot state became a checkpoint
  // (v6) is refused, so no bundle can be checked against it: the base
  // and every bundle are rebuilt, and the results do not change.
  const std::string dir = fresh_dir("kfi_service_test_base_v6");
  ServiceConfig config = base_config(dir);
  config.bundle_dir = fresh_dir("kfi_service_test_base_v6_bundles");
  ServiceResult first;
  const std::optional<Manifest> manifest = prepare_campaign(config, &first);
  ASSERT_TRUE(manifest.has_value()) << first.error;
  const std::string path =
      base_path(config.bundle_dir, manifest->base_workload, manifest->options,
                manifest->kernel_fp);
  std::string bytes = read_file_bytes(path).value_or("");
  ASSERT_GT(bytes.size(), kSealBytes + 8);
  bytes.resize(bytes.size() - kSealBytes);
  const std::uint32_t v6 = 6;
  std::memcpy(bytes.data() + 4, &v6, 4);
  ASSERT_TRUE(write_sealed_file(path, bytes).has_value());
  ASSERT_FALSE(load_base(path, manifest->base_workload, manifest->options,
                         manifest->kernel_fp)
                   .has_value());

  config.fresh = true;
  const ServiceResult result = run_service(config);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.bundles_built, manifest->workloads.size());
  EXPECT_EQ(result.bundles_adopted, 0u);
  EXPECT_EQ(result.digest, reference_digest());
  EXPECT_TRUE(load_base(path, manifest->base_workload, manifest->options,
                        manifest->kernel_fp, manifest->base_hash)
                  .has_value());
}

TEST(Service, ManifestWhoseBaseTrailerDiffersIsReprepared) {
  // A partial campaign, then its base file replaced by another valid
  // one: the manifest still loads, but its recorded base trailer no
  // longer names the file, so every worker would rebuild every golden
  // run locally.  The service must prepare afresh instead of resuming.
  const std::string dir = fresh_dir("kfi_service_test_base_trailer");
  ServiceConfig config = base_config(dir);
  config.bundle_dir = fresh_dir("kfi_service_test_base_trailer_bundles");
  ServiceConfig killed = config;
  killed.max_shards_per_worker = 1;
  killed.max_attempts = 1;
  EXPECT_FALSE(run_service(killed).ok);
  const std::optional<Manifest> manifest = load_manifest(dir);
  ASSERT_TRUE(manifest.has_value());
  reseal_flipped_base(base_path(config.bundle_dir, manifest->base_workload,
                                manifest->options, manifest->kernel_fp));
  ASSERT_TRUE(load_manifest(dir).has_value());

  const ServiceResult again = run_service(config);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.shards_resumed, 0u);
  EXPECT_EQ(again.shards_executed, again.shard_count);
  EXPECT_EQ(again.bundles_built, manifest->workloads.size());
  EXPECT_EQ(again.digest, reference_digest());
  const std::optional<Manifest> reprepared = load_manifest(dir);
  ASSERT_TRUE(reprepared.has_value());
  EXPECT_NE(reprepared->base_hash, manifest->base_hash);
  const WorkerReport report = run_worker(dir, 0, 1);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.bundle_adoptions, reprepared->workloads.size());
}

TEST(Service, WorkersAdoptBundlesInsteadOfRebuilding) {
  ServiceConfig config = base_config(fresh_dir("kfi_service_test_bundle"));
  const ServiceResult result = run_service(config);
  ASSERT_TRUE(result.ok) << result.error;
  // Bundles either existed (shared bundle dir, built by an earlier
  // test) or were built by this prepare — but between the two runs of
  // this config's workloads, each bundle exists exactly once.
  EXPECT_GT(result.bundles_built + result.bundles_adopted, 0u);

  // A standalone worker against the prepared directory adopts every
  // manifest workload from its bundle: zero local golden rebuilds.
  const auto manifest = load_manifest(config.dir);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_GE(manifest->workloads.size(), 1u);
  const WorkerReport report = run_worker(config.dir, 0, 1);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.bundle_adoptions, manifest->workloads.size());
  EXPECT_EQ(report.shards_completed, 0u);  // campaign already complete
}

std::string read_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

std::set<std::string> distinct_workloads(
    const std::vector<inject::CampaignConfig>& campaigns) {
  std::set<std::string> workloads;
  for (const inject::CampaignConfig& config : campaigns) {
    for (const inject::InjectionSpec& spec : inject::campaign_targets(
             profile::default_profile(), config, nullptr)) {
      workloads.insert(spec.workload);
    }
  }
  return workloads;
}

// Bundles are built on `workers` threads, but their bytes, the
// manifest's workload list and its bundle hashes must not depend on
// that count or on which build finished first.
TEST(Service, ParallelPrepareWritesIdenticalBundles) {
  constexpr std::uint64_t kAbcFold = 0x54fdd95d1638c920ULL;  // in-process
  std::vector<inject::CampaignConfig> smoke;
  for (const inject::Campaign campaign :
       {inject::Campaign::RandomNonBranch, inject::Campaign::RandomBranch,
        inject::Campaign::IncorrectBranch}) {
    smoke.push_back(check::smoke_config(campaign));
  }
  const std::size_t distinct = distinct_workloads(smoke).size();
  ASSERT_GT(distinct, 2u);

  std::vector<ServiceConfig> configs;
  std::vector<Manifest> manifests;
  for (const unsigned workers : {1u, 3u}) {
    const std::string name = "kfi_service_test_prepare_w" +
                             std::to_string(workers);
    ServiceConfig config;
    config.campaigns = smoke;
    config.dir = fresh_dir(name);
    config.bundle_dir = fresh_dir(name + "_bundles");
    config.workers = workers;
    ServiceResult prepared;
    const std::optional<Manifest> manifest =
        prepare_campaign(config, &prepared);
    ASSERT_TRUE(manifest.has_value()) << "workers=" << workers;
    EXPECT_EQ(prepared.bundles_built, distinct) << "workers=" << workers;
    EXPECT_EQ(prepared.bundles_adopted, 0u) << "workers=" << workers;
    configs.push_back(config);
    manifests.push_back(*manifest);
  }

  EXPECT_EQ(manifests[0].workloads, manifests[1].workloads);
  EXPECT_EQ(manifests[0].bundle_hashes, manifests[1].bundle_hashes);
  EXPECT_EQ(manifests[0].base_workload, manifests[0].workloads.front());
  EXPECT_EQ(manifests[0].base_workload, manifests[1].base_workload);
  EXPECT_EQ(manifests[0].base_hash, manifests[1].base_hash);
  ASSERT_EQ(manifests[0].workloads.size(), distinct);
  {
    const Manifest& m = manifests[0];
    const std::string one = read_bytes(base_path(
        configs[0].bundle_dir, m.base_workload, m.options, m.kernel_fp));
    const std::string three = read_bytes(base_path(
        configs[1].bundle_dir, m.base_workload, m.options, m.kernel_fp));
    EXPECT_FALSE(one.empty());
    EXPECT_TRUE(one == three) << "base file bytes differ";
  }
  for (const std::string& workload : manifests[0].workloads) {
    const Manifest& m = manifests[0];
    const std::string one = read_bytes(
        bundle_path(configs[0].bundle_dir, workload, m.options, m.kernel_fp));
    const std::string three = read_bytes(
        bundle_path(configs[1].bundle_dir, workload, m.options, m.kernel_fp));
    EXPECT_FALSE(one.empty()) << workload;
    EXPECT_TRUE(one == three) << workload << " bundle bytes differ";
  }

  // Both campaigns fold to the in-process digest.  Three workers drain
  // each one, whatever count its shard table was cut for.
  for (ServiceConfig& config : configs) {
    config.workers = 3;
    const ServiceResult result = run_service(config);
    ASSERT_TRUE(result.ok) << config.dir << ": " << result.error;
    EXPECT_EQ(result.digest, kAbcFold) << config.dir;
  }
}

// A bundle that cannot land (a directory squats at its path) fails the
// prepare with a message, after every builder has joined; the other
// bundles are whole, and no temp file is left behind.
TEST(Service, UnwritableBundleFailsPrepareOnTwoThreads) {
  ServiceConfig config = base_config(fresh_dir("kfi_service_test_squat"));
  config.bundle_dir = fresh_dir("kfi_service_test_squat_bundles");
  config.workers = 2;
  const std::set<std::string> workloads =
      distinct_workloads(config.campaigns);
  ASSERT_GE(workloads.size(), 2u);
  const inject::InjectorOptions options = config.options;
  const std::uint64_t kernel_fp =
      analysis::kernel_fingerprint(kernel::built_kernel());
  const std::string squatted = *workloads.begin();
  std::filesystem::create_directories(
      bundle_path(config.bundle_dir, squatted, options, kernel_fp) + "/x");

  ServiceResult result;
  testing::internal::CaptureStderr();
  const std::optional<Manifest> manifest = prepare_campaign(config, &result);
  const std::string stderr_text = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(manifest.has_value());
  EXPECT_NE(stderr_text.find("cannot write bundle"), std::string::npos)
      << stderr_text;
  EXPECT_FALSE(load_manifest(config.dir).has_value());
  // The squatted workload comes first, so its image is the base, which
  // landed before any bundle.
  const std::optional<LoadedBase> base =
      load_base(base_path(config.bundle_dir, squatted, options, kernel_fp),
                squatted, options, kernel_fp);
  ASSERT_TRUE(base.has_value());
  for (const std::string& workload : workloads) {
    if (workload == squatted) continue;
    EXPECT_TRUE(load_bundle(bundle_path(config.bundle_dir, workload,
                                        options, kernel_fp),
                            workload, options, kernel_fp, *base)
                    .has_value())
        << workload;
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(config.bundle_dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

// A one-slot campaign-D (register-file fault model) config over one
// function: the fault-model service contracts on a tier-1 budget.
ServiceConfig register_config(const std::string& dir) {
  ServiceConfig config;
  inject::CampaignConfig d =
      check::smoke_config(inject::Campaign::RegisterFile);
  d.functions = {"pipe_read"};
  config.campaigns = {d};
  config.dir = dir;
  config.bundle_dir = temp_path("kfi_service_test_bundles");
  config.workers = 1;
  return config;
}

const inject::CampaignRun& register_reference_run() {
  static const inject::CampaignRun run = [] {
    inject::Injector injector(inject::InjectorOptions{});
    inject::CampaignConfig d =
        check::smoke_config(inject::Campaign::RegisterFile);
    d.functions = {"pipe_read"};
    d.threads = 1;
    return inject::run_campaign(injector, profile::default_profile(), d);
  }();
  return run;
}

TEST(Service, RegisterCampaignKilledAndResumedStaysBitIdentical) {
  const std::string dir = fresh_dir("kfi_service_test_d_resume");
  ServiceConfig config = register_config(dir);

  // Kill the campaign after one shard, then resume: the fault-model
  // campaign must converge on the in-process digest like A/C do.
  ServiceConfig killed = config;
  killed.max_shards_per_worker = 1;
  killed.max_attempts = 1;
  const ServiceResult partial = run_service(killed);
  EXPECT_FALSE(partial.ok);

  const ServiceResult resumed = run_service(config, /*materialize=*/true);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.shards_resumed, 1u);
  std::vector<inject::CampaignRun> reference;
  reference.push_back(register_reference_run());
  EXPECT_EQ(resumed.digest, analysis::results_digest(reference));
  ASSERT_EQ(resumed.runs.size(), 1u);
  const check::RunComparison cmp =
      check::compare_runs(register_reference_run(), resumed.runs[0]);
  EXPECT_TRUE(cmp.identical())
      << cmp.mismatches.size() << " mismatches of " << cmp.compared;
}

TEST(Service, MixedFaultModelResumeIsRejected) {
  // A directory holding a completed campaign-D manifest must not leak
  // shards into a campaign-A run over the same functions: the config
  // echo (campaign + fault-model byte) differs, so the service wipes
  // and restarts instead of resuming across models.
  const std::string dir = fresh_dir("kfi_service_test_mixed_model");
  ServiceConfig register_service = register_config(dir);
  const ServiceResult first = run_service(register_service);
  ASSERT_TRUE(first.ok) << first.error;

  ServiceConfig instr_service = register_service;
  instr_service.campaigns[0] =
      check::smoke_config(inject::Campaign::RandomNonBranch);
  instr_service.campaigns[0].functions = {"pipe_read"};
  const ServiceResult second = run_service(instr_service);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.shards_resumed, 0u);
  EXPECT_EQ(second.shards_executed, second.shard_count);
  EXPECT_NE(second.digest, first.digest);
}

TEST(Service, FailingWorkersAreReapedAndCounted) {
  // Every worker exits 9 after completing one shard; the controller
  // must reap each one, record the non-zero exits, keep re-dispatching
  // waves, and still converge on the bit-identical digest.
  ServiceConfig config = base_config(fresh_dir("kfi_service_test_failing"));
  config.max_shards_per_worker = 1;
  config.worker_death = ServiceConfig::WorkerDeath::Fail;
  const ServiceResult result = run_service(config);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.digest, reference_digest());
  EXPECT_GE(result.workers_failed, result.shard_count);
  EXPECT_EQ(result.workers_signaled, 0u);
}

TEST(Service, SignaledWorkersAreReapedAndCounted) {
  ServiceConfig config = base_config(fresh_dir("kfi_service_test_signaled"));
  config.max_shards_per_worker = 1;
  config.worker_death = ServiceConfig::WorkerDeath::Signal;
  const ServiceResult result = run_service(config);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.digest, reference_digest());
  EXPECT_GE(result.workers_signaled, result.shard_count);
  EXPECT_EQ(result.workers_failed, 0u);
}

TEST(Service, DifferentConfigInvalidatesTheManifest) {
  const std::string dir = fresh_dir("kfi_service_test_invalidate");
  ServiceConfig config = base_config(dir);
  const ServiceResult first = run_service(config);
  ASSERT_TRUE(first.ok) << first.error;

  // Same directory, different seed: the manifest identity changes, so
  // stale shards must not be resumed into the new campaign.
  ServiceConfig changed = config;
  for (inject::CampaignConfig& campaign : changed.campaigns) {
    campaign.seed = 2004;
  }
  const ServiceResult second = run_service(changed);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.shards_resumed, 0u);
  EXPECT_EQ(second.shards_executed, second.shard_count);
  EXPECT_NE(second.digest, first.digest);
}

TEST(Service, ResumeUnderTheOtherEngineStopsAndKeepsShards) {
  // A partial campaign prepared under the stepper (the default of older
  // builds), then resumed under the chained engine: the config hashes
  // differ only in the engine, so the service must stop with the
  // setting that resumes it instead of wiping the completed shard.
  const std::string dir = fresh_dir("kfi_service_test_engine_resume");
  ServiceConfig config = base_config(dir);
  config.options.exec_engine = machine::ExecEngine::Step;
  ServiceConfig killed = config;
  killed.max_shards_per_worker = 1;
  killed.max_attempts = 1;
  EXPECT_FALSE(run_service(killed).ok);
  std::ifstream in(dir + "/manifest.kfim", std::ios::binary);
  const std::string manifest_bytes{std::istreambuf_iterator<char>(in), {}};

  ServiceConfig other = config;
  other.options.exec_engine = machine::ExecEngine::Chained;
  const ServiceResult refused = run_service(other);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("KFI_EXEC=step"), std::string::npos)
      << refused.error;
  std::ifstream again(dir + "/manifest.kfim", std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(again), {}),
            manifest_bytes);

  const ServiceResult resumed = run_service(config);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.shards_resumed, 1u);
  EXPECT_EQ(resumed.digest, reference_digest());
}

// ---- manifest shard-table validation ----
//
// The shard table sits outside the config-echo hash, so load_manifest
// checks it on its own: ranges must be non-inverted, contiguous from 0
// and cover exactly the sum of target_counts.  Each test below plants
// one violation in an otherwise valid manifest and expects a clean
// rejection from both the loader and a worker.

using ShardTable = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// A valid prepared manifest's bytes and shard table, made once per
// process.
const std::pair<std::string, ShardTable>& prepared_manifest() {
  static const std::pair<std::string, ShardTable> prepared = [] {
    const ServiceConfig config =
        base_config(fresh_dir("kfi_service_test_manifest"));
    const std::optional<Manifest> manifest = prepare_campaign(config);
    EXPECT_TRUE(manifest.has_value());
    std::ifstream in(config.dir + "/manifest.kfim", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return std::make_pair(std::move(bytes), manifest.has_value()
                                                ? manifest->shard_ranges
                                                : ShardTable{});
  }();
  return prepared;
}

// Rewrites a manifest's trailer (its last 8 bytes) to the checksum of
// everything before it, as a build that wrote these bytes would have.
void reseal(std::string& bytes) {
  const std::uint64_t sum = content_hash(bytes.data(), bytes.size() - 8);
  std::memcpy(&bytes[bytes.size() - 8], &sum, 8);
}

// Writes the prepared manifest with its shard table (16 bytes per
// shard, just before the trailer) replaced by `table` and resealed
// into a fresh directory.
std::string manifest_with_table(const std::string& name,
                                const ShardTable& table) {
  const std::string dir = fresh_dir(name);
  std::string bytes = prepared_manifest().first;
  const std::size_t at = bytes.size() - 8 - 16 * table.size();
  for (std::size_t i = 0; i < table.size(); ++i) {
    std::memcpy(&bytes[at + 16 * i], &table[i].first, 8);
    std::memcpy(&bytes[at + 16 * i + 8], &table[i].second, 8);
  }
  reseal(bytes);
  std::ofstream(dir + "/manifest.kfim", std::ios::binary) << bytes;
  return dir;
}

TEST(Service, ManifestShardTableRoundTrips) {
  const ShardTable& table = prepared_manifest().second;
  ASSERT_GE(table.size(), 3u);
  const auto loaded =
      load_manifest(manifest_with_table("kfi_service_test_table_ok", table));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->shard_ranges, table);
}

TEST(Service, ManifestWithInvertedShardRangeIsRejected) {
  // Contiguous and exactly covering, but shard 1 ends before it
  // begins: execute_range's reserve(end - begin) would underflow.
  ShardTable table = prepared_manifest().second;
  ASSERT_GE(table.size(), 3u);
  table[1].second = table[1].first - 1;
  table[2].first = table[1].second;
  const std::string dir =
      manifest_with_table("kfi_service_test_table_inverted", table);
  EXPECT_FALSE(load_manifest(dir).has_value());
  EXPECT_FALSE(run_worker(dir, 0, 1).ok);
}

TEST(Service, ManifestWithShardRangeGapIsRejected) {
  ShardTable table = prepared_manifest().second;
  ASSERT_GE(table.size(), 3u);
  table[1].first += 1;  // position table[0].second is never executed
  const std::string dir =
      manifest_with_table("kfi_service_test_table_gap", table);
  EXPECT_FALSE(load_manifest(dir).has_value());
  EXPECT_FALSE(run_worker(dir, 0, 1).ok);
}

TEST(Service, ManifestWithShardRangePastThePlanIsRejected) {
  // The last shard runs past the sum of target_counts: a worker would
  // index plan.orders out of bounds.
  ShardTable table = prepared_manifest().second;
  ASSERT_GE(table.size(), 3u);
  table.back().second += 5;
  const std::string dir =
      manifest_with_table("kfi_service_test_table_past", table);
  std::string error;
  EXPECT_FALSE(load_manifest(dir, &error).has_value());
  EXPECT_EQ(error.rfind("bad manifest shard table", 0), 0u) << error;
  EXPECT_FALSE(run_worker(dir, 0, 1).ok);
}

// Where a manifest's config echo sits: the stored hash, then the echo
// size, then the echo itself.
struct EchoAt {
  std::size_t hash_at = 0;
  std::size_t echo_at = 0;
  std::uint64_t echo_size = 0;
};

EchoAt find_echo(const std::string& bytes) {
  EchoAt at;
  std::uint32_t bundle_len = 0;
  std::memcpy(&bundle_len, &bytes[8], 4);  // after magic and version
  at.hash_at = 12 + bundle_len;
  at.echo_at = at.hash_at + 16;
  std::memcpy(&at.echo_size, &bytes[at.hash_at + 8], 8);
  return at;
}

void rehash_echo(std::string& bytes, const EchoAt& at) {
  const std::uint64_t hash = fnv1a_bytes(
      &bytes[at.echo_at], static_cast<std::size_t>(at.echo_size));
  std::memcpy(&bytes[at.hash_at], &hash, 8);
}

TEST(Service, ManifestWithUnknownEngineIsRejected) {
  // The config echo is hash-protected, but a manifest written by a
  // build with more execution engines carries a valid hash over an
  // engine value this build does not have.  Rewrite the echo's engine
  // field (after the u32 checkpoint count), re-hash and reseal it: the
  // loader and a worker must refuse it.
  std::string bytes = prepared_manifest().first;
  const EchoAt at = find_echo(bytes);
  const std::uint32_t engine = 4;
  std::memcpy(&bytes[at.echo_at + 4], &engine, 4);
  rehash_echo(bytes, at);
  reseal(bytes);

  const std::string dir = fresh_dir("kfi_service_test_unknown_engine");
  std::ofstream(dir + "/manifest.kfim", std::ios::binary) << bytes;
  std::string error;
  EXPECT_FALSE(load_manifest(dir, &error).has_value());
  EXPECT_EQ(error.rfind("unreadable manifest config echo", 0), 0u) << error;
  EXPECT_FALSE(run_worker(dir, 0, 1).ok);
}

TEST(Service, VersionTwoManifestIsRejectedAndReprepared) {
  // A partial campaign, then its manifest rewritten in the v2 layout:
  // version 2, no checksum trailer, and a zero full-restore flag byte
  // after the echo's checkpoint count, re-hashed.  The service must not
  // misread it as the current layout: it prepares afresh and resumes
  // nothing.
  const std::string dir = fresh_dir("kfi_service_test_v2_manifest");
  ServiceConfig config = base_config(dir);
  ServiceConfig killed = config;
  killed.max_shards_per_worker = 1;
  killed.max_attempts = 1;
  EXPECT_FALSE(run_service(killed).ok);

  std::string bytes;
  {
    std::ifstream in(dir + "/manifest.kfim", std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_TRUE(load_manifest(dir).has_value());
  bytes.resize(bytes.size() - 8);
  EchoAt at = find_echo(bytes);
  const std::uint32_t version = 2;
  std::memcpy(&bytes[4], &version, 4);
  bytes.insert(at.echo_at + 4, 1, '\0');
  ++at.echo_size;
  std::memcpy(&bytes[at.hash_at + 8], &at.echo_size, 8);
  rehash_echo(bytes, at);
  std::ofstream(dir + "/manifest.kfim", std::ios::binary | std::ios::trunc)
      << bytes;
  std::string error;
  EXPECT_FALSE(load_manifest(dir, &error).has_value());
  EXPECT_EQ(error.rfind("manifest version 2,", 0), 0u) << error;
  EXPECT_FALSE(run_worker(dir, 0, 1).ok);

  const ServiceResult again = run_service(config);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.shards_resumed, 0u);
  EXPECT_EQ(again.shards_executed, again.shard_count);
  EXPECT_EQ(again.digest, reference_digest());
  EXPECT_TRUE(load_manifest(dir).has_value());
}

TEST(Service, VersionThreeManifestIsRejectedAndReprepared) {
  // A partial campaign, then its manifest rewritten as a v3 build wrote
  // it: version 3, no checksum trailer, and each bundle hash the FNV-1a
  // of the bundle file.  Read as the current layout, every bundle would
  // fail its check and every worker would rebuild every golden run
  // locally.  The service must prepare afresh, and the new manifest's
  // hashes must let a worker adopt every bundle.
  const std::string dir = fresh_dir("kfi_service_test_v3_manifest");
  ServiceConfig config = base_config(dir);
  ServiceConfig killed = config;
  killed.max_shards_per_worker = 1;
  killed.max_attempts = 1;
  EXPECT_FALSE(run_service(killed).ok);

  std::string bytes;
  {
    std::ifstream in(dir + "/manifest.kfim", std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::optional<Manifest> manifest = load_manifest(dir);
  ASSERT_TRUE(manifest.has_value());
  bytes.resize(bytes.size() - 8);
  const EchoAt at = find_echo(bytes);
  const std::uint32_t version = 3;
  std::memcpy(&bytes[4], &version, 4);
  // Per campaign two u64 counts, then (v7 on) the base workload and
  // trailer, which v3 did not write, then the u32 workload count, then
  // each workload's name and bundle hash.
  std::size_t pos = at.echo_at + static_cast<std::size_t>(at.echo_size) +
                    16 * manifest->campaigns.size();
  bytes.erase(pos, 4 + manifest->base_workload.size() + 8);
  pos += 4;
  for (const std::string& workload : manifest->workloads) {
    pos += 4 + workload.size();
    const std::optional<std::string> bundle = read_file_bytes(
        bundle_path(config.bundle_dir, workload, manifest->options,
                    manifest->kernel_fp));
    ASSERT_TRUE(bundle.has_value());
    const std::uint64_t fnv = fnv1a_bytes(bundle->data(), bundle->size());
    std::memcpy(&bytes[pos], &fnv, 8);
    pos += 8;
  }
  std::ofstream(dir + "/manifest.kfim", std::ios::binary | std::ios::trunc)
      << bytes;
  std::string error;
  EXPECT_FALSE(load_manifest(dir, &error).has_value());
  EXPECT_EQ(error.rfind("manifest version 3,", 0), 0u) << error;
  EXPECT_FALSE(run_worker(dir, 0, 1).ok);

  const ServiceResult again = run_service(config);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.shards_resumed, 0u);
  EXPECT_EQ(again.shards_executed, again.shard_count);
  EXPECT_EQ(again.digest, reference_digest());
  const std::optional<Manifest> reprepared = load_manifest(dir);
  ASSERT_TRUE(reprepared.has_value());
  const WorkerReport report = run_worker(dir, 0, 1);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.bundle_adoptions, reprepared->workloads.size());
}

// Every reason load_manifest names for a manifest it cannot use.
bool named_rejection(const std::string& error) {
  for (const char* reason :
       {"truncated manifest", "not a manifest", "manifest version",
        "manifest config echo does not match its hash",
        "unreadable manifest config echo", "bad manifest workload count",
        "bad manifest shard count", "bad manifest shard table",
        "manifest does not match its checksum"}) {
    if (error.rfind(reason, 0) == 0) return true;
  }
  return false;
}

TEST(Service, ManifestBitFlipAnywhereIsRejected) {
  // A manifest is read back from disk, so any byte of it may rot.  A
  // flipped functions_targeted would otherwise reach the materialized
  // CampaignRun, and a flipped workload name, bundle hash or bundle
  // directory would cost a silent local rebuild; every single-bit flip
  // must instead be refused with a named reason.
  const std::string& bytes = prepared_manifest().first;
  ASSERT_FALSE(bytes.empty());
  const std::string dir = fresh_dir("kfi_service_test_flipped_manifest");
  const std::string path = dir + "/manifest.kfim";
  std::ofstream(path, std::ios::binary) << bytes;
  const std::optional<Manifest> manifest = load_manifest(dir);
  ASSERT_TRUE(manifest.has_value());
  const auto write_flipped = [&](std::size_t bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << flipped;
  };
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    write_flipped(bit);
    std::string error;
    EXPECT_FALSE(load_manifest(dir, &error).has_value()) << "bit " << bit;
    EXPECT_TRUE(named_rejection(error)) << "bit " << bit << ": " << error;
  }

  // One bit in each field, through a worker too.
  const EchoAt at = find_echo(bytes);
  std::vector<std::pair<const char*, std::size_t>> fields = {
      {"magic", 0},
      {"version", 4},
      {"bundle_dir length", 8},
      {"bundle_dir", 12},
      {"config hash", at.hash_at},
      {"echo size", at.hash_at + 8},
      {"config echo", at.echo_at},
  };
  std::size_t pos = at.echo_at + static_cast<std::size_t>(at.echo_size);
  fields.emplace_back("functions_targeted", pos);
  fields.emplace_back("target count", pos + 8);
  pos += 16 * manifest->campaigns.size();
  fields.emplace_back("base workload", pos + 4);
  pos += 4 + manifest->base_workload.size();
  fields.emplace_back("base hash", pos);
  pos += 8;
  fields.emplace_back("workload count", pos);
  pos += 4;
  fields.emplace_back("workload name", pos + 4);
  fields.emplace_back("bundle hash", pos + 4 + manifest->workloads[0].size());
  for (const std::string& workload : manifest->workloads) {
    pos += 4 + workload.size() + 8;
  }
  fields.emplace_back("shard count", pos);
  fields.emplace_back("shard range", pos + 8 + 8);
  fields.emplace_back("trailer", bytes.size() - 8);
  ASSERT_EQ(pos + 8 + 16 * manifest->shard_ranges.size() + 8, bytes.size());
  for (const auto& [field, byte] : fields) {
    write_flipped(8 * byte);
    EXPECT_FALSE(run_worker(dir, 0, 1).ok) << field;
  }
}

TEST(Service, ManifestTruncatedAtEveryOffsetIsRejected) {
  // Every field of the manifest, up to the last shard range, is needed
  // to run a shard, so each cut short of the whole file must be
  // refused by the loader and by a worker, and reported as a cut, not
  // as a missing manifest.
  const std::string& bytes = prepared_manifest().first;
  ASSERT_FALSE(bytes.empty());
  const std::string dir = fresh_dir("kfi_service_test_truncated_manifest");
  const std::string path = dir + "/manifest.kfim";

  std::string missing;
  EXPECT_FALSE(load_manifest(dir, &missing).has_value());
  EXPECT_EQ(missing.rfind("no manifest", 0), 0u) << missing;

  std::ofstream(path, std::ios::binary) << bytes;
  for (std::size_t cut = bytes.size(); cut-- > 0;) {
    std::filesystem::resize_file(path, cut);
    std::string error;
    EXPECT_FALSE(load_manifest(dir, &error).has_value()) << "cut at " << cut;
    EXPECT_EQ(error.rfind("truncated", 0), 0u)
        << "cut at " << cut << ": " << error;
    EXPECT_FALSE(run_worker(dir, 0, 1).ok) << "cut at " << cut;
  }

  // The aggregator reports the same reason.
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);
  ServiceResult result;
  EXPECT_FALSE(aggregate_campaign(dir, false, result));
  EXPECT_EQ(result.error.rfind("truncated", 0), 0u) << result.error;
  EXPECT_NE(result.error, missing);
}

}  // namespace
}  // namespace kfi::serve
