#include "analysis/io.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "analysis/store.h"
#include "kernel/build.h"
#include "support/fsio.h"
#include "support/serial.h"
#include "support/strings.h"

namespace kfi::analysis {
namespace {

constexpr std::uint32_t kMagic = 0x4B464931;  // "KFI1"
// v4: unchanged byte layout since the put_u32/put_str writers this file
// used before the shared ByteWriter — the per-result record now lives
// in analysis/store (write_result/read_result) so shard artifacts and
// campaign caches stay format-twins.
constexpr std::uint32_t kVersion = 4;
// v5 appends the fault-model fields to every record (store.cc's
// extended layout).  Caches whose results are all InstrBit keep being
// written as v4, so the committed A/B/C caches stay byte-identical and
// loadable; a D/E/F cache is v5.
constexpr std::uint32_t kVersionExtended = 5;

}  // namespace

bool save_campaign(const inject::CampaignRun& run, const std::string& path) {
  bool extended = false;
  for (const inject::InjectionResult& r : run.results) {
    if (result_is_extended(r)) {
      extended = true;
      break;
    }
  }
  ByteWriter writer;
  writer.u32(kMagic);
  writer.u32(extended ? kVersionExtended : kVersion);
  writer.u32(static_cast<std::uint32_t>(run.campaign));
  writer.u64(run.functions_targeted);
  writer.u64(run.results.size());
  for (const inject::InjectionResult& r : run.results) {
    write_result(writer, r, extended);
  }
  // Crash-safe: a reader either sees the previous cache or the complete
  // new one, never a torn write that half-parses on the next load.
  return atomic_write_file(path, writer.buffer());
}

std::optional<inject::CampaignRun> load_campaign(const std::string& path) {
  const std::optional<std::string> data = read_file_bytes(path);
  if (!data.has_value()) return std::nullopt;
  ByteReader reader(*data);
  if (reader.u32() != kMagic) return std::nullopt;
  const std::uint32_t version = reader.u32();
  if (version != kVersion && version != kVersionExtended) {
    return std::nullopt;
  }
  const bool extended = version == kVersionExtended;

  inject::CampaignRun run;
  run.campaign = static_cast<inject::Campaign>(reader.u32());
  run.functions_targeted = static_cast<std::size_t>(reader.u64());
  // The count is untrusted: a file cannot hold more records than its
  // remaining bytes fit at the minimum record size, so anything larger
  // is rejected before the reserve can ask for an absurd allocation.
  const std::uint64_t count = reader.u64();
  if (!reader.ok() ||
      count > reader.remaining() / min_result_bytes(extended)) {
    return std::nullopt;
  }
  run.results.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
    inject::InjectionResult r;
    if (!read_result(reader, r, extended)) break;
    run.results.push_back(std::move(r));
  }
  if (!reader.ok() || run.results.size() != count) return std::nullopt;
  return run;
}

std::uint64_t kernel_fingerprint(const kernel::KernelImage& image) {
  std::uint64_t fingerprint = kFnvOffset;
  for (const kernel::LoadSegment& segment : image.segments) {
    fingerprint =
        fnv1a_bytes(segment.bytes.data(), segment.bytes.size(), fingerprint);
  }
  return fingerprint;
}

std::string campaign_cache_path(const std::string& cache_dir,
                                inject::Campaign campaign, int repeats,
                                std::uint64_t seed,
                                const kernel::KernelImage& image) {
  return cache_dir + "/campaign_" +
         std::string(inject::campaign_name(campaign)) + "_r" +
         std::to_string(repeats) + "_s" + std::to_string(seed) + "_k" +
         format("%08x",
                static_cast<std::uint32_t>(kernel_fingerprint(image))) +
         ".kfi";
}

inject::CampaignRun load_or_run_campaign(inject::Injector& injector,
                                         inject::Campaign campaign,
                                         int repeats, std::uint64_t seed,
                                         const std::string& cache_dir,
                                         bool verbose, unsigned threads) {
  std::string path;
  if (!cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cache_dir, ec);
    path = campaign_cache_path(cache_dir, campaign, repeats, seed,
                               kernel::built_kernel());
    if (auto cached = load_campaign(path)) {
      if (verbose) {
        std::fprintf(stderr, "[kfi] campaign %s: loaded %zu results from %s\n",
                     std::string(inject::campaign_name(campaign)).c_str(),
                     cached->results.size(), path.c_str());
      }
      return std::move(*cached);
    }
  }

  inject::CampaignConfig config;
  config.campaign = campaign;
  config.repeats = repeats;
  config.seed = seed;
  config.threads = threads;
  if (verbose) {
    config.progress = [campaign](std::size_t done, std::size_t total) {
      if (done % 500 == 0 || done == total) {
        std::fprintf(stderr, "[kfi] campaign %s: %zu/%zu\r",
                     std::string(inject::campaign_name(campaign)).c_str(),
                     done, total);
        if (done == total) std::fprintf(stderr, "\n");
      }
    };
  }
  inject::CampaignRun run =
      inject::run_campaign(injector, profile::default_profile(), config);
  if (!path.empty() && !save_campaign(run, path)) {
    std::fprintf(stderr, "[kfi] warning: failed to save campaign cache %s\n",
                 path.c_str());
  }
  return run;
}

std::uint64_t require_u64(const char* flag, const char* text,
                          std::uint64_t min_value, std::uint64_t max_value) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value, min_value, max_value)) {
    std::fprintf(stderr,
                 "error: %s expects an integer in [%llu, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(min_value),
                 static_cast<unsigned long long>(max_value), text);
    std::exit(2);
  }
  return value;
}

unsigned jobs_from_env() {
  const char* env = std::getenv("KFI_JOBS");
  if (env == nullptr || *env == '\0') return 0;
  unsigned jobs = 0;
  if (!parse_jobs(env, jobs)) {
    std::fprintf(stderr, "error: KFI_JOBS expects an integer in [1, 1024], "
                         "got '%s'\n", env);
    std::exit(2);
  }
  return jobs;
}

BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions options;
  options.threads = jobs_from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) {
      options.repeats = static_cast<int>(
          require_u64("--scale", argv[++i], 1, 1'000'000));
    } else if (arg == "--seed" && i + 1 < argc) {
      options.seed = require_u64("--seed", argv[++i], 0, UINT64_MAX);
    } else if (arg == "--cache" && i + 1 < argc) {
      options.cache_dir = argv[++i];
    } else if (arg == "--no-cache") {
      options.use_cache = false;
    } else if (arg == "--quiet") {
      options.verbose = false;
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = static_cast<unsigned>(
          require_u64("--threads", argv[++i], 0, 1024));
    } else if (arg == "--jobs" && i + 1 < argc) {
      // Unlike --threads 0, a job count of 0 is an error, not a request
      // for hardware concurrency.
      options.threads = static_cast<unsigned>(
          require_u64("--jobs", argv[++i], 1, 1024));
    } else if (arg == "--help") {
      std::printf(
          "options: --scale N (repeat random campaigns N times)\n"
          "         --seed N  (campaign RNG seed)\n"
          "         --cache DIR | --no-cache\n"
          "         --threads N | --jobs N\n"
          "                   (worker threads; default KFI_JOBS, else\n"
          "                    0 = hardware concurrency; --jobs takes 1..1024)\n"
          "         --quiet\n");
      std::exit(0);
    }
  }
  return options;
}

inject::CampaignRun bench_campaign(inject::Injector& injector,
                                   inject::Campaign campaign,
                                   const BenchOptions& options) {
  return load_or_run_campaign(injector, campaign, options.repeats,
                              options.seed,
                              options.use_cache ? options.cache_dir : "",
                              options.verbose, options.threads);
}

}  // namespace kfi::analysis
