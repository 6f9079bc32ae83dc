// Campaign result persistence: a compact binary format so the bench
// binaries for Figures 4/6/7/8 and Table 5 share one set of campaign
// runs instead of re-injecting thousands of errors each.
#pragma once

#include <optional>
#include <string>

#include "inject/campaign.h"

namespace kfi::analysis {

bool save_campaign(const inject::CampaignRun& run, const std::string& path);
std::optional<inject::CampaignRun> load_campaign(const std::string& path);

// FNV-1a fingerprint over a kernel image's load segments.  A campaign
// cache (and the instruction addresses inside it) is only valid for the
// exact image it was produced from, so the fingerprint is baked into
// the cache file name.
std::uint64_t kernel_fingerprint(const kernel::KernelImage& image);

// "<cache_dir>/campaign_<A|B|C>_r<repeats>_s<seed>_k<fp>.kfi" — the
// canonical cache file name for a campaign run against `image`.
std::string campaign_cache_path(const std::string& cache_dir,
                                inject::Campaign campaign, int repeats,
                                std::uint64_t seed,
                                const kernel::KernelImage& image);

// Loads the campaign from `<cache_dir>/campaign_<name>_r<repeats>_s<seed>.kfi`
// or runs it (and saves).  `verbose` prints progress to stderr.
// `threads` maps to CampaignConfig::threads (0 = hardware concurrency);
// results are bit-identical at any value, so the cache key ignores it.
inject::CampaignRun load_or_run_campaign(inject::Injector& injector,
                                         inject::Campaign campaign,
                                         int repeats, std::uint64_t seed,
                                         const std::string& cache_dir,
                                         bool verbose, unsigned threads = 0);

// Shared bench flags: --scale N (repeats), --seed N, --cache DIR,
// --no-cache, --quiet, --threads N, --jobs N.
struct BenchOptions {
  int repeats = 1;
  std::uint64_t seed = 2003;
  std::string cache_dir = "kfi-results";
  bool use_cache = true;
  bool verbose = true;
  // Campaign worker threads; 0 = hardware concurrency.  KFI_JOBS sets
  // the default, and --threads N or --jobs N (synonyms; the last one
  // wins) override it.  --jobs and KFI_JOBS are strict parse_jobs
  // inputs: 0, "4x" and anything above 1024 exit(2).
  unsigned threads = 0;
};

// Strict numeric flag parse (support/strings parse_u64): prints the
// offending flag and exits(2) instead of atoi's silent 0-on-garbage
// (which turned "--threads 4x" into a hardware-concurrency sweep
// without a word).  Every front end's numeric flags go through it.
std::uint64_t require_u64(const char* flag, const char* text,
                          std::uint64_t min_value, std::uint64_t max_value);

// KFI_JOBS from the environment (strict; exits(2) on garbage), or 0
// when unset.  The default worker count of every front end that takes
// --jobs.
unsigned jobs_from_env();

// All numeric flags are strict (support/strings parse_u64): a
// malformed value prints a diagnostic and exits(2) instead of being
// atoi'd to 0.
BenchOptions parse_bench_options(int argc, char** argv);

// Runs (or loads) one campaign with the given options.
inject::CampaignRun bench_campaign(inject::Injector& injector,
                                   inject::Campaign campaign,
                                   const BenchOptions& options);

}  // namespace kfi::analysis
