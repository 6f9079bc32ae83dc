// Campaign orchestration: expands a campaign over the profiled hot
// functions, pairs every target with the workload that exercises it
// most, and executes the runs (paper §6).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "inject/injector.h"
#include "inject/outcome.h"
#include "inject/targets.h"
#include "profile/profile.h"

namespace kfi::inject {

// Campaign F samples this many errno injections per workload per
// `repeats` unit (each picks a random successful golden syscall exit
// and a random errno).
inline constexpr int kErrnoSamplesPerRepeat = 8;

struct CampaignConfig {
  Campaign campaign = Campaign::RandomNonBranch;
  // Functions to target; empty = the profile's core set (coverage
  // below), like the paper's 32 hottest functions, extended for the
  // branch campaigns which need more branch sites.  For campaign F the
  // entries name *workloads* instead (the fault site is fixed at the
  // syscall exit; the population axis is whose syscall stream fails).
  std::vector<std::string> functions;
  double profile_coverage = 0.95;
  // Random-bit repetition factor for campaigns A and B.
  int repeats = 1;
  std::uint64_t seed = 2003;
  // Kernel image to target (nullptr = the standard build).
  const kernel::KernelImage* kernel_image = nullptr;
  // Worker threads.  Workers share one GoldenCache (golden runs and
  // ladders are built once per workload total) but own private
  // machines, so results are identical regardless of thread count.
  unsigned threads = 0;  // 0 = hardware concurrency
  // Optional progress callback: (done, total); called under a lock.
  std::function<void(std::size_t, std::size_t)> progress;
};

struct CampaignRun {
  Campaign campaign = Campaign::RandomNonBranch;
  std::vector<InjectionResult> results;
  std::size_t functions_targeted = 0;
  CampaignStats stats;
};

// Default function selection for a campaign: the profile core set for
// A; every profiled function for B and C (branch sites are sparse, so
// the paper widened the function list there too — its Figure 4 shows
// 51 / 81 / 176 functions for A / B / C).
std::vector<std::string> default_functions(Campaign campaign,
                                           const profile::ProfileResult& prof,
                                           double coverage);

// The campaign's full target list, derived deterministically from
// (campaign, seed, repeats, functions): the exact sequence run_campaign
// executes.  `functions_targeted` (optional) receives the number of
// functions that contributed at least one target.  Because the only
// stochastic input is the seeded Rng, re-invoking this with the same
// config regenerates the identical list — the property kfi::check's
// single-run replay rests on.
std::vector<InjectionSpec> campaign_targets(const profile::ProfileResult& prof,
                                            const CampaignConfig& config,
                                            std::size_t* functions_targeted);

// The deterministic execution order run_campaign drains: positions
// into `targets`, grouped by workload and sorted by each target's
// first-execution cycle in the golden run, so consecutive runs resume
// from the same (or an adjacent) checkpoint-ladder rung, and an
// injector's one machine switches workload only at group boundaries.
// Exposed so
// the process-sharded campaign service (src/serve) cuts its shard
// manifest over the identical order — shard boundaries, and therefore
// shard artifact hashes, depend only on (targets, golden touch maps).
// Looking up first-touch maps builds (or bundle-adopts) each
// workload's golden artifacts in `injector`'s cache.
std::vector<std::size_t> campaign_order(
    Injector& injector, const std::vector<InjectionSpec>& targets);

// Shards per worker in the one rule both executors cut by.  The last
// shard of a campaign leaves the other workers idle, so this bounds
// the tail to about 1/(8·workers) of the work (at 4 per worker the
// four-thread paper-scale run was measurably slower, DESIGN.md §9);
// few enough that each shard stays a long run of neighbouring rungs.
inline constexpr std::uint64_t kShardsPerWorker = 8;

// A half-open range [begin, end) of positions in a campaign order.
using ShardRange = std::pair<std::uint64_t, std::uint64_t>;

// Cuts positions [0, total) into n = min(kShardsPerWorker * workers,
// total) contiguous ranges [total*s/n, total*(s+1)/n): ascending,
// none empty, none when total is 0.  Depends only on the arguments,
// so the service's shard table (and its artifact hashes) and the
// thread path agree on every cut.
std::vector<ShardRange> shard_ranges(std::uint64_t total, unsigned workers);

// The one shard dispatcher, for threads (run_campaign) and forked
// workers (serve::run_worker).  `worker` visits its own shards
// (s % workers == worker) in ascending order, then every other shard
// in ascending order, and calls `run(s, stolen)` for each shard whose
// `claim(s)` it wins.  Exactly-once is the claim's job: an atomic flag
// per shard for threads, an O_EXCL file for processes.  Returns how
// many shards it ran that it did not own (steals).
std::uint64_t drain_shards(
    std::uint64_t shards, unsigned worker, unsigned workers,
    const std::function<bool(std::uint64_t)>& claim,
    const std::function<void(std::uint64_t, bool)>& run);

// Builds the golden artifacts of the campaign's workloads on its
// threads (GoldenCache::build_workloads), then drains the campaign's
// n targets over shard_ranges(n, threads):
// worker 0 keeps `injector`, every other thread runs its own Injector
// on the shared GoldenCache.
// Results land in spec-order slots, so the thread count moves only
// wall-clock time.  At one thread the shards run in ascending order,
// so progress ticks follow campaign_order.
CampaignRun run_campaign(Injector& injector,
                         const profile::ProfileResult& prof,
                         const CampaignConfig& config);

}  // namespace kfi::inject
