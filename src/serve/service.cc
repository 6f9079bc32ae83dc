#include "serve/service.h"

#include <fcntl.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>

#include "analysis/io.h"
#include "kernel/build.h"
#include "profile/profile.h"
#include "serve/bundle.h"
#include "support/fsio.h"
#include "support/serial.h"
#include "support/strings.h"

namespace kfi::serve {
namespace {

constexpr std::uint32_t kManifestMagic = 0x4B46494D;  // "KFIM"
// v2: each campaign slot's config echo carries its fault-model byte,
// so a resume against a directory whose manifest was produced under a
// different fault model (or a tampered campaign/model pairing) fails
// the config-hash comparison instead of silently mixing models.
// v3: the config echo drops the full-restore flag byte that followed
// the checkpoint count.
// v4: bundle_hashes are kfi::content_hash values, not FNV-1a, so a
// manifest from an older build would fail every bundle check.
// v5: a kfi::content_hash trailer over every preceding byte, so a
// flipped functions_targeted, workload name, bundle hash or bundle
// directory is rejected instead of loading.
// v6: bundle hashes are the bundles' own checksum trailers, and the
// config echo drops the watchdog budget factor and slack (constants
// now, inject::run_budget).
// v7: the base file's workload and trailer precede the workload table
// (bundles hold deltas against that base).
constexpr std::uint32_t kManifestVersion = 7;

std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.kfim";
}
std::string shards_dir(const std::string& dir) { return dir + "/shards"; }
std::string claims_dir(const std::string& dir) { return dir + "/claims"; }
std::string claim_path(const std::string& dir, std::uint64_t shard) {
  return format("%s/shard_%06llu.claim", claims_dir(dir).c_str(),
                static_cast<unsigned long long>(shard));
}

// The config echo: every input the campaign's results are a function
// of.  Its FNV-1a is the config hash that ties manifest, shard
// artifacts, and workers to one campaign identity.
void write_config_echo(ByteWriter& writer, const Manifest& manifest) {
  writer.u32(static_cast<std::uint32_t>(manifest.options.checkpoints));
  writer.u32(static_cast<std::uint32_t>(manifest.options.exec_engine));
  writer.u64(manifest.kernel_fp);
  writer.u32(static_cast<std::uint32_t>(manifest.campaigns.size()));
  for (const inject::CampaignConfig& config : manifest.campaigns) {
    writer.u32(static_cast<std::uint32_t>(config.campaign));
    writer.u8(static_cast<std::uint8_t>(
        inject::campaign_fault_model(config.campaign)));
    writer.u64(config.seed);
    writer.u32(static_cast<std::uint32_t>(config.repeats));
    writer.f64(config.profile_coverage);
    writer.u32(static_cast<std::uint32_t>(config.functions.size()));
    for (const std::string& fn : config.functions) writer.str(fn);
  }
}

std::uint64_t config_hash(const Manifest& manifest) {
  ByteWriter echo;
  write_config_echo(echo, manifest);
  return fnv1a_bytes(echo.buffer().data(), echo.size());
}

const char* engine_name(machine::ExecEngine engine) {
  return engine == machine::ExecEngine::Step ? "step" : "chained";
}

bool read_config_echo(ByteReader& reader, Manifest& manifest) {
  manifest.options.checkpoints = static_cast<int>(reader.u32());
  const std::uint32_t engine = reader.u32();
  if (engine > static_cast<std::uint32_t>(machine::ExecEngine::Chained)) {
    return false;
  }
  manifest.options.exec_engine = static_cast<machine::ExecEngine>(engine);
  manifest.kernel_fp = reader.u64();
  const std::uint32_t campaigns = reader.u32();
  if (!reader.ok() || campaigns > 256) return false;
  manifest.campaigns.resize(campaigns);
  for (inject::CampaignConfig& config : manifest.campaigns) {
    config.campaign = static_cast<inject::Campaign>(reader.u32());
    const std::uint8_t model = reader.u8();
    // The model byte is derived state; a mismatch means the manifest
    // was written by a build with a different campaign→model mapping
    // (or tampered with) — results would not be comparable.
    if (model != static_cast<std::uint8_t>(
                     inject::campaign_fault_model(config.campaign))) {
      return false;
    }
    config.seed = reader.u64();
    config.repeats = static_cast<int>(reader.u32());
    config.profile_coverage = reader.f64();
    const std::uint32_t functions = reader.u32();
    if (!reader.ok() || functions > 100'000) return false;
    config.functions.resize(functions);
    for (std::string& fn : config.functions) fn = reader.str();
  }
  return reader.ok();
}

bool write_manifest(const std::string& dir, const std::string& bundle_dir,
                    const Manifest& manifest) {
  ByteWriter echo;
  write_config_echo(echo, manifest);

  ByteWriter writer;
  writer.u32(kManifestMagic);
  writer.u32(kManifestVersion);
  writer.str(bundle_dir);
  writer.u64(manifest.config_hash);
  writer.u64(echo.size());
  writer.bytes(echo.buffer().data(), echo.size());
  for (std::size_t i = 0; i < manifest.campaigns.size(); ++i) {
    writer.u64(manifest.functions_targeted[i]);
    writer.u64(manifest.target_counts[i]);
  }
  writer.str(manifest.base_workload);
  writer.u64(manifest.base_hash);
  writer.u32(static_cast<std::uint32_t>(manifest.workloads.size()));
  for (std::size_t i = 0; i < manifest.workloads.size(); ++i) {
    writer.str(manifest.workloads[i]);
    writer.u64(manifest.bundle_hashes[i]);
  }
  writer.u64(manifest.shard_ranges.size());
  for (const auto& [begin, end] : manifest.shard_ranges) {
    writer.u64(begin);
    writer.u64(end);
  }
  return write_sealed_file(manifest_path(dir), writer.buffer()).has_value();
}

// The shard table and target counts lie outside the config-echo hash,
// so they are checked here: the ranges must be non-inverted, follow
// each other without gap or overlap from 0, and end at exactly the sum
// of target_counts.  Otherwise an end < begin range would underflow
// execute_range's reserve and a range past the plan would index
// plan.orders out of bounds.
bool shard_ranges_valid(const Manifest& manifest) {
  std::uint64_t total = 0;
  for (const std::uint64_t count : manifest.target_counts) {
    if (count > UINT64_MAX - total) return false;
    total += count;
  }
  std::uint64_t next = 0;
  for (const auto& [begin, end] : manifest.shard_ranges) {
    if (begin != next || end < begin) return false;
    next = end;
  }
  return next == total;
}

// The manifest plus the bundle directory recorded inside it.  On
// rejection `error` names the check that failed: a missing file, a
// file cut short, a foreign magic or version, a config echo that does
// not hash to the stored identity or does not parse, a bad shard
// table, or bytes that do not hash to the trailer.
std::optional<std::pair<Manifest, std::string>> load_manifest_full(
    const std::string& dir, std::string& error) {
  const std::string path = manifest_path(dir);
  const auto reject = [&error, &path](const char* why) {
    error = std::string(why) + " in " + path;
    return std::nullopt;
  };
  const std::optional<std::string> data = read_file_bytes(path);
  if (!data.has_value()) {
    error = "no manifest in " + dir;
    return std::nullopt;
  }
  ByteReader reader(*data);
  const std::uint32_t magic = reader.u32();
  const std::uint32_t version = reader.u32();
  if (!reader.ok()) return reject("truncated manifest header");
  if (magic != kManifestMagic) return reject("not a manifest (bad magic)");
  if (version != kManifestVersion) {
    error = "manifest version " + std::to_string(version) + ", expected " +
            std::to_string(kManifestVersion) + ", in " + path;
    return std::nullopt;
  }
  const std::string bundle_dir = reader.str();
  Manifest manifest;
  manifest.config_hash = reader.u64();
  const std::uint64_t echo_size = reader.u64();
  const std::uint8_t* echo = reader.bytes(echo_size);
  if (echo == nullptr) return reject("truncated manifest config echo");
  // The stored hash must be the hash of the stored echo — a manifest
  // whose identity field was tampered with (or torn) is rejected here.
  if (fnv1a_bytes(echo, echo_size) != manifest.config_hash) {
    return reject("manifest config echo does not match its hash");
  }
  ByteReader echo_reader(echo, static_cast<std::size_t>(echo_size));
  if (!read_config_echo(echo_reader, manifest)) {
    return reject("unreadable manifest config echo");
  }

  manifest.functions_targeted.resize(manifest.campaigns.size());
  manifest.target_counts.resize(manifest.campaigns.size());
  for (std::size_t i = 0; i < manifest.campaigns.size(); ++i) {
    manifest.functions_targeted[i] =
        static_cast<std::size_t>(reader.u64());
    manifest.target_counts[i] = reader.u64();
  }
  manifest.base_workload = reader.str();
  manifest.base_hash = reader.u64();
  const std::uint32_t workloads = reader.u32();
  if (!reader.ok()) return reject("truncated manifest target counts");
  if (workloads > 10'000) return reject("bad manifest workload count");
  manifest.workloads.resize(workloads);
  manifest.bundle_hashes.resize(workloads);
  for (std::uint32_t i = 0; i < workloads; ++i) {
    manifest.workloads[i] = reader.str();
    manifest.bundle_hashes[i] = reader.u64();
  }
  const std::uint64_t shard_count = reader.u64();
  if (!reader.ok()) return reject("truncated manifest workload table");
  if (shard_count > 1'000'000) return reject("bad manifest shard count");
  manifest.shard_ranges.resize(static_cast<std::size_t>(shard_count));
  for (auto& [begin, end] : manifest.shard_ranges) {
    begin = reader.u64();
    end = reader.u64();
  }
  if (!reader.ok()) return reject("truncated manifest shard table");
  reader.u64();  // the trailer, checked last
  if (!reader.ok()) return reject("truncated manifest trailer");
  if (!shard_ranges_valid(manifest)) return reject("bad manifest shard table");
  // Last, so a bad shard table is named as such whether or not the
  // trailer was resealed after the edit.
  if (!check_seal(data->data(), data->size())) {
    return reject("manifest does not match its checksum");
  }
  return std::make_pair(std::move(manifest), bundle_dir);
}

// The per-slot target lists and locality orders, regenerated
// deterministically from the manifest's config echo — workers never
// ship target lists around, they re-derive them.
struct CampaignPlan {
  std::vector<std::vector<inject::InjectionSpec>> targets;  // per slot
  std::vector<std::vector<std::size_t>> orders;             // per slot
  std::vector<std::uint64_t> bases;  // global index of slot start
  std::uint64_t total = 0;
};

CampaignPlan build_plan(inject::Injector& injector,
                        const std::vector<inject::CampaignConfig>& campaigns) {
  CampaignPlan plan;
  const profile::ProfileResult& prof = profile::default_profile();
  for (const inject::CampaignConfig& config : campaigns) {
    plan.bases.push_back(plan.total);
    plan.targets.push_back(
        inject::campaign_targets(prof, config, nullptr));
    plan.orders.push_back(
        inject::campaign_order(injector, plan.targets.back()));
    plan.total += plan.targets.back().size();
  }
  return plan;
}

// The manifest's base file, checked against its recorded trailer.
std::optional<LoadedBase> load_manifest_base(const Manifest& manifest,
                                             const std::string& bundle_dir) {
  return load_base(base_path(bundle_dir, manifest.base_workload,
                             manifest.options, manifest.kernel_fp),
                   manifest.base_workload, manifest.options,
                   manifest.kernel_fp, manifest.base_hash);
}

// Installs the base image and every manifest workload into the cache
// from their files (mmap, zero-copy); the base is mapped and checked
// once.  A bundle that is missing or fails verification is rebuilt
// locally — slower, never wrong, since golden artifacts are a pure
// function of (kernel, workload, options) and a local build deltas
// against whichever base the cache holds.  Without a valid base file
// every workload is rebuilt.
std::uint64_t adopt_bundles(inject::GoldenCache& cache,
                            const Manifest& manifest,
                            const std::string& bundle_dir,
                            unsigned worker_id, bool verbose) {
  const auto began = std::chrono::steady_clock::now();
  std::uint64_t adopted = 0;
  std::uint64_t verified_bytes = 0;
  const std::optional<LoadedBase> base =
      load_manifest_base(manifest, bundle_dir);
  if (base.has_value()) {
    verified_bytes += base->size;
    cache.adopt_base(base->image);
  } else if (verbose && !manifest.workloads.empty()) {
    std::fprintf(stderr,
                 "[kfi-serve] worker %u: base file for %s invalid; "
                 "rebuilding every workload locally\n",
                 worker_id, manifest.base_workload.c_str());
  }
  for (std::size_t i = 0; base.has_value() && i < manifest.workloads.size();
       ++i) {
    const std::string& workload = manifest.workloads[i];
    const std::string path = bundle_path(bundle_dir, workload,
                                         manifest.options,
                                         manifest.kernel_fp);
    std::optional<LoadedBundle> loaded =
        load_bundle(path, workload, manifest.options, manifest.kernel_fp,
                    *base, manifest.bundle_hashes[i]);
    if (!loaded.has_value()) {
      if (verbose) {
        std::fprintf(stderr,
                     "[kfi-serve] bundle %s invalid; rebuilding locally\n",
                     path.c_str());
      }
      continue;
    }
    verified_bytes += loaded->size;
    if (cache.adopt_workload(workload, std::move(loaded->artifact),
                             std::move(loaded->keepalive))) {
      ++adopted;
    }
  }
  if (verbose) {
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - began;
    std::fprintf(stderr,
                 "[kfi-serve] worker %u: adopted %llu of %zu bundles, "
                 "%.1f MiB verified in %.3f s\n",
                 worker_id, static_cast<unsigned long long>(adopted),
                 manifest.workloads.size(),
                 static_cast<double>(verified_bytes) / (1024.0 * 1024.0),
                 took.count());
  }
  return adopted;
}

// Fills manifest.base_workload, base_hash and bundle_hashes (parallel
// to manifest.workloads).  The base is the first workload's post-boot
// image.  A valid base file, and every bundle that loads against it,
// is kept as it is; without a valid base file no bundle can be checked,
// so the base is captured and written first and every bundle rebuilt.
// The missing workloads are built on up to `threads` threads, and
// the thread that built one writes its bundle, so fsync waits overlap
// with the other builds.  Each hash lands in its workload's slot, so
// the manifest does not depend on which build finished first.  False
// when a file cannot be written (message on stderr), once every
// builder has joined.
bool prepare_bundles(Manifest& manifest, const std::string& bundle_dir,
                     unsigned threads, bool verbose, ServiceResult* result) {
  const auto began = std::chrono::steady_clock::now();
  const auto path_of = [&](const std::string& workload) {
    return bundle_path(bundle_dir, workload, manifest.options,
                       manifest.kernel_fp);
  };
  manifest.bundle_hashes.assign(manifest.workloads.size(), 0);
  if (manifest.workloads.empty()) return true;
  manifest.base_workload = manifest.workloads.front();
  const std::string base_file =
      base_path(bundle_dir, manifest.base_workload, manifest.options,
                manifest.kernel_fp);
  const std::optional<LoadedBase> base =
      load_base(base_file, manifest.base_workload, manifest.options,
                manifest.kernel_fp);
  if (base.has_value()) manifest.base_hash = base->content_hash;
  std::vector<std::string> missing;
  std::vector<std::size_t> slots;  // manifest slot of each missing name
  for (std::size_t i = 0; i < manifest.workloads.size(); ++i) {
    const std::string& workload = manifest.workloads[i];
    const std::optional<LoadedBundle> loaded =
        base.has_value()
            ? load_bundle(path_of(workload), workload, manifest.options,
                          manifest.kernel_fp, *base)
            : std::nullopt;
    if (loaded.has_value()) {
      manifest.bundle_hashes[i] = loaded->content_hash;
    } else {
      missing.push_back(workload);
      slots.push_back(i);
    }
  }

  std::atomic<bool> written{true};
  inject::GoldenCache::HeldBytes held;
  double capture_rate = 0.0;
  if (!missing.empty()) {
    {  // the builder cache dies at the end of this block
      inject::GoldenCache cache(manifest.options);
      if (base.has_value()) {
        cache.adopt_base(base->image);
      } else {
        cache.capture_base(manifest.base_workload);
        const std::optional<std::uint64_t> hash =
            write_base(base_file, manifest.base_workload, *cache.base(),
                       manifest.options, manifest.kernel_fp);
        if (!hash.has_value()) {
          std::fprintf(stderr, "[kfi-serve] cannot write base file %s\n",
                       base_file.c_str());
          return false;
        }
        manifest.base_hash = *hash;
      }
      cache.build_workloads(
          missing, threads,
          [&](std::size_t j, const inject::WorkloadGolden& artifact) {
            const std::string path = path_of(missing[j]);
            const std::optional<std::uint64_t> hash =
                write_bundle(path, missing[j], artifact, manifest.options,
                             manifest.kernel_fp, manifest.base_hash);
            if (hash.has_value()) {
              manifest.bundle_hashes[slots[j]] = *hash;
              return;
            }
            std::fprintf(stderr, "[kfi-serve] cannot write bundle %s\n",
                         path.c_str());
            written = false;
          });
      held = cache.held_bytes();
      capture_rate = cache.capture_mcycles_per_s();
    }
#ifdef __GLIBC__
    // Forked workers inherit the controller's resident heap, so the
    // builder arenas freed above would count in every worker's RSS
    // until handed back.
    malloc_trim(0);
#endif
  }
  if (!written) return false;
  if (result != nullptr) {
    result->bundles_built += missing.size();
    result->bundles_adopted += manifest.workloads.size() - missing.size();
  }
  if (verbose) {
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - began;
    const std::size_t used = std::max<std::size_t>(
        1, std::min<std::size_t>(std::max(threads, 1u), missing.size()));
    constexpr double kMiB = 1024.0 * 1024.0;
    // The files as they now stand on disk, written or kept.
    const auto file_mib = [](const std::string& path) {
      std::error_code ec;
      const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
      return ec ? 0.0 : static_cast<double>(bytes) / kMiB;
    };
    double bundle_mib = 0.0;
    for (const std::string& workload : manifest.workloads) {
      bundle_mib += file_mib(path_of(workload));
    }
    std::fprintf(stderr,
                 "[kfi-serve] prepare: built %zu and adopted %zu of %zu "
                 "bundles (%zu threads, %.3f s, capture pass %.0f "
                 "Mcycles/s); builder cache held base %.1f MiB, boot "
                 "deltas %.2f MiB, ladders %.1f MiB; files: base %.1f MiB, "
                 "bundles %.2f MiB\n",
                 missing.size(), manifest.workloads.size() - missing.size(),
                 manifest.workloads.size(), used, took.count(), capture_rate,
                 static_cast<double>(held.base) / kMiB,
                 static_cast<double>(held.boots) / kMiB,
                 static_cast<double>(held.ladders) / kMiB, file_mib(base_file),
                 bundle_mib);
  }
  return true;
}

// Executes order positions [begin, end) and returns the shard's
// records (global spec index + result).
std::vector<analysis::ShardRecord> execute_range(
    inject::Injector& injector, const CampaignPlan& plan,
    std::uint64_t begin, std::uint64_t end) {
  std::vector<analysis::ShardRecord> records;
  records.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t pos = begin; pos < end; ++pos) {
    std::size_t slot = plan.bases.size() - 1;
    while (slot > 0 && pos < plan.bases[slot]) --slot;
    const std::size_t j = static_cast<std::size_t>(pos - plan.bases[slot]);
    const std::size_t spec = plan.orders[slot][j];
    analysis::ShardRecord record;
    record.spec_index = plan.bases[slot] + spec;
    record.result = injector.run_one(plan.targets[slot][spec]);
    records.push_back(std::move(record));
  }
  return records;
}

// O_CREAT|O_EXCL claim: exactly one process wins a shard, kernel-
// arbitrated, shared-filesystem-visible.
bool try_claim(const std::string& dir, std::uint64_t shard,
               unsigned worker_id) {
  const std::string path = claim_path(dir, shard);
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  const std::string body = format("worker %u\n", worker_id);
  (void)!::write(fd, body.data(), body.size());
  ::close(fd);
  return true;
}

// The claimer recorded in a claim file, or nullopt.
std::optional<unsigned> claim_owner(const std::string& dir,
                                    std::uint64_t shard) {
  const std::optional<std::string> body =
      read_file_bytes(claim_path(dir, shard));
  if (!body.has_value()) return std::nullopt;
  unsigned worker = 0;
  if (std::sscanf(body->c_str(), "worker %u", &worker) != 1) {
    return std::nullopt;
  }
  return worker;
}

// True when shard `shard` has an artifact of this campaign that opens:
// opening a cursor is the verification.
bool shard_done(const analysis::ShardStore& store, const Manifest& manifest,
                std::uint64_t shard) {
  return analysis::ShardCursor::open(store.shard_path(shard), shard,
                                     manifest.config_hash)
      .has_value();
}

}  // namespace

std::optional<Manifest> load_manifest(const std::string& dir,
                                      std::string* error) {
  std::string why;
  auto full = load_manifest_full(dir, error != nullptr ? *error : why);
  if (!full.has_value()) return std::nullopt;
  return std::move(full->first);
}

std::optional<Manifest> prepare_campaign(const ServiceConfig& config,
                                         ServiceResult* result) {
  const std::string bundle_dir =
      config.bundle_dir.empty() ? config.dir + "/bundles"
                                : config.bundle_dir;
  std::error_code ec;
  std::filesystem::create_directories(shards_dir(config.dir), ec);
  std::filesystem::create_directories(claims_dir(config.dir), ec);
  std::filesystem::create_directories(bundle_dir, ec);

  Manifest manifest;
  manifest.campaigns = config.campaigns;
  manifest.options = config.options;
  manifest.options.trace_capacity = 0;  // never part of campaign identity
  manifest.kernel_fp = analysis::kernel_fingerprint(kernel::built_kernel());
  manifest.config_hash = config_hash(manifest);

  // An existing manifest for the same config is the resume case: keep
  // it (and every completed shard).  A different config, or `fresh`,
  // wipes shards and claims; bundles are keyed and content-verified,
  // so they always survive.
  std::string ignored;  // absent or unusable: prepared afresh below
  if (auto existing = load_manifest_full(config.dir, ignored)) {
    Manifest& old = existing->first;
    const bool same_config = old.config_hash == manifest.config_hash;
    // Workers resolve every bundle through the recorded base: a
    // manifest whose base file no longer carries the recorded trailer
    // is prepared afresh.
    if (!config.fresh && same_config &&
        (old.workloads.empty() ||
         load_manifest_base(old, existing->second).has_value())) {
      return std::move(old);
    }
    // The same campaign under the other execution engine.  The engines
    // are result-identical, but the engine is part of the campaign
    // identity, so going on would wipe every completed shard (e.g. a
    // directory begun by a build whose default engine was the stepper).
    // Stop and name the setting that resumes it.
    const machine::ExecEngine prepared_with = old.options.exec_engine;
    old.options.exec_engine = manifest.options.exec_engine;
    if (!config.fresh && !same_config &&
        config_hash(old) == manifest.config_hash) {
      std::fprintf(stderr,
                   "[kfi-serve] %s was prepared with the %s engine; resume "
                   "it with KFI_EXEC=%s, or prepare it fresh\n",
                   config.dir.c_str(), engine_name(prepared_with),
                   engine_name(prepared_with));
      if (result != nullptr) {
        result->error = "campaign prepared with KFI_EXEC=" +
                        std::string(engine_name(prepared_with));
      }
      return std::nullopt;
    }
  }
  if (std::filesystem::exists(manifest_path(config.dir), ec) ||
      config.fresh) {
    for (const auto& sub : {shards_dir(config.dir), claims_dir(config.dir)}) {
      for (const auto& entry : std::filesystem::directory_iterator(sub, ec)) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
    std::filesystem::remove(manifest_path(config.dir), ec);
  }

  const profile::ProfileResult& prof = profile::default_profile();
  std::set<std::string> workloads;
  std::vector<std::vector<inject::InjectionSpec>> targets;
  for (const inject::CampaignConfig& campaign : manifest.campaigns) {
    std::size_t functions_targeted = 0;
    targets.push_back(
        inject::campaign_targets(prof, campaign, &functions_targeted));
    manifest.functions_targeted.push_back(functions_targeted);
    manifest.target_counts.push_back(targets.back().size());
    for (const inject::InjectionSpec& spec : targets.back()) {
      workloads.insert(spec.workload);
    }
  }

  manifest.workloads.assign(workloads.begin(), workloads.end());
  if (!prepare_bundles(manifest, bundle_dir, config.workers, config.verbose,
                       result)) {
    return std::nullopt;
  }

  // Shard table over the concatenated locality orders, cut by the same
  // rule as the thread path; workers re-derive the orders themselves.
  manifest.shard_ranges =
      inject::shard_ranges(manifest.total_targets(), config.workers);

  if (!write_manifest(config.dir, bundle_dir, manifest)) {
    std::fprintf(stderr, "[kfi-serve] cannot write manifest in %s\n",
                 config.dir.c_str());
    return std::nullopt;
  }
  return manifest;
}

WorkerReport run_worker(const std::string& dir, unsigned worker_id,
                        unsigned workers, std::uint64_t max_shards,
                        bool verbose) {
  WorkerReport report;
  std::string error;
  auto full = load_manifest_full(dir, error);
  if (!full.has_value()) {
    std::fprintf(stderr, "[kfi-serve] worker %u: %s\n", worker_id,
                 error.c_str());
    return report;
  }
  const Manifest& manifest = full->first;
  const std::string& bundle_dir = full->second;
  if (workers == 0) workers = 1;

  auto cache = std::make_shared<inject::GoldenCache>(manifest.options);
  report.bundle_adoptions =
      adopt_bundles(*cache, manifest, bundle_dir, worker_id, verbose);
  inject::Injector injector(cache);
  const CampaignPlan plan = build_plan(injector, manifest.campaigns);
  // The shard table indexes this plan only if the manifest's counts
  // (checked against the table on load) match what was re-derived.
  for (std::size_t slot = 0; slot < plan.targets.size(); ++slot) {
    if (plan.targets[slot].size() != manifest.target_counts[slot]) {
      std::fprintf(stderr,
                   "[kfi-serve] worker %u: manifest target counts do not "
                   "match the campaign plan in %s\n",
                   worker_id, dir.c_str());
      return report;
    }
  }
  const analysis::ShardStore store(shards_dir(dir));

  // The one drain: owned shards (index % workers) first, then whatever
  // lagging or dead peers left unclaimed.  A claim is an O_EXCL file,
  // so exactly one process runs each shard.
  bool failed = false;
  report.shards_stolen = inject::drain_shards(
      manifest.shard_ranges.size(), worker_id, workers,
      [&](std::uint64_t shard) {
        if (failed ||
            (max_shards != 0 && report.shards_completed >= max_shards)) {
          return false;
        }
        return !shard_done(store, manifest, shard) &&
               try_claim(dir, shard, worker_id);
      },
      [&](std::uint64_t shard, bool stolen) {
        const auto [begin, end] = manifest.shard_ranges[shard];
        std::vector<analysis::ShardRecord> records =
            execute_range(injector, plan, begin, end);
        report.runs += records.size();
        const std::string path = store.write_shard(
            shard, manifest.config_hash, std::move(records));
        if (path.empty()) {
          std::fprintf(stderr,
                       "[kfi-serve] worker %u: cannot write shard %llu\n",
                       worker_id, static_cast<unsigned long long>(shard));
          failed = true;
          return;
        }
        ++report.shards_completed;
        if (verbose) {
          std::fprintf(stderr,
                       "[kfi-serve] worker %u: shard %llu done (%s)\n",
                       worker_id, static_cast<unsigned long long>(shard),
                       stolen ? "stolen" : "owned");
        }
      });
  report.ok = !failed;
  if (verbose) {
    std::fprintf(stderr,
                 "[kfi-serve] worker %u: %llu runs on %llu machines\n",
                 worker_id, static_cast<unsigned long long>(report.runs),
                 static_cast<unsigned long long>(injector.stats().machines));
  }
  return report;
}

bool aggregate_campaign(const std::string& dir, bool materialize,
                        ServiceResult& result) {
  auto full = load_manifest_full(dir, result.error);
  if (!full.has_value()) return false;
  const Manifest& manifest = full->first;
  const analysis::ShardStore store(shards_dir(dir));
  result.shard_count = manifest.shard_ranges.size();

  // Every shard must have an artifact that opens.  Corrupt ones are
  // discarded so the next wave re-runs them instead of feeding poison
  // into the merge.
  std::vector<analysis::ShardCursor> cursors;
  for (std::uint64_t shard = 0; shard < result.shard_count; ++shard) {
    const std::string path = store.shard_path(shard);
    auto cursor =
        analysis::ShardCursor::open(path, shard, manifest.config_hash);
    if (!cursor.has_value()) {
      std::error_code ec;
      if (!std::filesystem::exists(path, ec)) {
        result.error = format("shard %llu missing",
                              static_cast<unsigned long long>(shard));
        return false;
      }
      store.discard_shard(shard);
      ++result.corrupt_discarded;
      result.error = format("shard %llu failed verification",
                            static_cast<unsigned long long>(shard));
      return false;
    }
    cursors.push_back(std::move(*cursor));
  }

  analysis::StreamingFold fold(manifest.target_counts, materialize);
  const bool merged = analysis::merge_shards(
      cursors, [&](const analysis::ShardRecord& record) {
        return fold.add(record);
      });
  if (!merged || !fold.complete()) {
    result.error = "shard merge did not tile the spec space";
    return false;
  }

  result.digest = fold.digest();
  result.total_runs = fold.total();
  if (materialize) {
    result.runs.clear();
    for (std::size_t i = 0; i < manifest.campaigns.size(); ++i) {
      inject::CampaignRun run;
      run.campaign = manifest.campaigns[i].campaign;
      run.functions_targeted = manifest.functions_targeted[i];
      run.results = std::move(fold.slots()[i]);
      result.runs.push_back(std::move(run));
    }
  }
  result.error.clear();
  return true;
}

ServiceResult run_service(const ServiceConfig& config, bool materialize) {
  ServiceResult result;
  const std::optional<Manifest> manifest =
      prepare_campaign(config, &result);
  if (!manifest.has_value()) {
    if (result.error.empty()) result.error = "prepare failed";
    return result;
  }
  const analysis::ShardStore store(shards_dir(config.dir));
  const std::uint64_t shard_count = manifest->shard_ranges.size();
  const unsigned workers = std::max(config.workers, 1u);

  for (std::uint64_t shard = 0; shard < shard_count; ++shard) {
    if (shard_done(store, *manifest, shard)) ++result.shards_resumed;
  }

  for (int attempt = 1; attempt <= std::max(config.max_attempts, 1);
       ++attempt) {
    result.attempts = attempt;
    std::vector<std::uint64_t> pending;
    for (std::uint64_t shard = 0; shard < shard_count; ++shard) {
      if (!shard_done(store, *manifest, shard)) pending.push_back(shard);
    }
    if (!pending.empty()) {
      // A claim without an artifact marks a worker that died (or was
      // kill-simulated) mid-shard; clear it so this wave can re-claim.
      std::error_code ec;
      for (const std::uint64_t shard : pending) {
        std::filesystem::remove(claim_path(config.dir, shard), ec);
      }
      const unsigned wave =
          static_cast<unsigned>(std::min<std::uint64_t>(workers,
                                                        pending.size()));
      std::vector<pid_t> children;
      bool fork_failed = false;
      for (unsigned w = 0; w < wave; ++w) {
        const pid_t pid = ::fork();
        if (pid == 0) {
          const WorkerReport report =
              run_worker(config.dir, w, workers,
                         config.max_shards_per_worker, config.verbose);
          if (config.worker_death == ServiceConfig::WorkerDeath::Signal) {
            ::raise(SIGKILL);
          }
          if (config.worker_death == ServiceConfig::WorkerDeath::Fail) {
            ::_exit(9);
          }
          ::_exit(report.ok ? 0 : 1);
        }
        if (pid < 0) {
          // Do not leave the already-spawned part of the wave running:
          // kill and reap every child before reporting the failure, or
          // they become orphans still writing into the campaign
          // directory after run_service returned.
          fork_failed = true;
          for (const pid_t child : children) ::kill(child, SIGKILL);
          break;
        }
        children.push_back(pid);
      }
      for (const pid_t pid : children) {
        int status = 0;
        pid_t got;
        do {
          got = ::waitpid(pid, &status, 0);
        } while (got < 0 && errno == EINTR);
        if (got != pid) continue;
        if (WIFSIGNALED(status)) {
          ++result.workers_signaled;
          if (config.verbose) {
            std::fprintf(stderr,
                         "[kfi-serve] worker pid %d killed by signal %d\n",
                         static_cast<int>(pid), WTERMSIG(status));
          }
        } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
          ++result.workers_failed;
          if (config.verbose) {
            std::fprintf(stderr,
                         "[kfi-serve] worker pid %d exited with status %d\n",
                         static_cast<int>(pid), WEXITSTATUS(status));
          }
        }
      }
      if (fork_failed) {
        result.error = "fork failed";
        return result;
      }
    }
    if (aggregate_campaign(config.dir, materialize, result)) {
      result.ok = true;
      break;
    }
    if (config.verbose) {
      std::fprintf(stderr, "[kfi-serve] attempt %d: %s\n", attempt,
                   result.error.c_str());
    }
  }
  if (!result.ok) return result;

  result.shards_executed = shard_count - result.shards_resumed;
  for (std::uint64_t shard = 0; shard < shard_count; ++shard) {
    const std::optional<unsigned> owner = claim_owner(config.dir, shard);
    if (owner.has_value() && *owner != shard % workers) ++result.steals;
  }
  return result;
}

}  // namespace kfi::serve
