// bench_throughput — end-to-end campaign throughput of four execution
// paths: full-restore baseline, checkpoint ladder, the chained trace
// engine (block_chained: trace widening + successor links + inline
// translate cache), and the chained engine with the forensics event
// trace attached (the trace layer's observational-overhead gate) —
// plus a worker-thread scaling sweep (threads = 1/2/4/8) of the chained
// engine over one shared, prewarmed GoldenCache.
//
// All modes and every sweep entry run the identical smoke-scale A/B/C
// campaigns; the result vectors are required to be bit-identical (exit
// 1 otherwise), so the measured speedup can never come from changed
// behavior.  Emits BENCH_throughput.json with machine-readable numbers:
// runs/sec per mode, RAM bytes copied per restore, checkpoint hit rate,
// decode-cache hit rate, block-engine counters, the per-thread-count
// sweep (with scheduler telemetry), the worker-process sweep of the
// sharded campaign service (src/serve) under the same digest gate, and
// the shared result digest.
//
// Sweeps default to {1, 2, 4, 8}; --jobs N (or KFI_JOBS) replaces the
// ladder with {1, N} — strictly parsed, so a mistyped count aborts
// instead of silently sweeping hardware concurrency.  Every sweep
// entry records hardware_concurrency, and a single-core host tags the
// sweeps "scaling_valid": false: the identity gates still bind there,
// the wall-clock ratios do not.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/io.h"
#include "analysis/store.h"
#include "check/expectations.h"
#include "check/replay.h"
#include "inject/campaign.h"
#include "inject/golden.h"
#include "machine/machine.h"
#include "profile/profile.h"
#include "serve/service.h"
#include "support/strings.h"
#include "trace/trace.h"

namespace {

using namespace kfi;

constexpr inject::Campaign kCampaigns[] = {
    inject::Campaign::RandomNonBranch,
    inject::Campaign::RandomBranch,
    inject::Campaign::IncorrectBranch,
};

struct ModeResult {
  std::string name;
  unsigned threads = 1;
  double seconds = 0.0;
  std::uint64_t runs = 0;
  // Aggregated over every worker Injector and all three campaigns.
  inject::CampaignStats stats;
  std::vector<inject::CampaignRun> campaigns;
};

// Runs the three smoke campaigns with `threads` workers.  When `cache`
// is non-null the Injector borrows it (golden artifacts prewarmed
// outside the timed region); otherwise a private cache is built inside
// it, exactly as a cold campaign would.
ModeResult run_mode(const std::string& name,
                    const inject::InjectorOptions& options,
                    unsigned threads = 1,
                    std::shared_ptr<inject::GoldenCache> cache = nullptr) {
  ModeResult mode;
  mode.name = name;
  mode.threads = threads;
  auto injector = cache != nullptr
                      ? std::make_unique<inject::Injector>(std::move(cache))
                      : std::make_unique<inject::Injector>(options);
  const auto begin = std::chrono::steady_clock::now();
  for (const inject::Campaign campaign : kCampaigns) {
    inject::CampaignConfig config = check::smoke_config(campaign);
    config.threads = threads;
    mode.campaigns.push_back(inject::run_campaign(
        *injector, profile::default_profile(), config));
    const inject::CampaignStats& cs = mode.campaigns.back().stats;
    mode.runs += mode.campaigns.back().results.size();
    mode.stats += cs;
    mode.stats.chunks += cs.chunks;  // telemetry: not part of +=
    mode.stats.steals += cs.steals;
  }
  const auto end = std::chrono::steady_clock::now();
  mode.seconds = std::chrono::duration<double>(end - begin).count();
  mode.stats.threads_used = threads;
  return mode;
}

// FNV-1a over every field that identifies an outcome; any behavioral
// divergence between two modes changes the value.  Shared with the
// campaign service's streaming aggregation (analysis/store), which is
// exactly why the sharded digest is comparable bit-for-bit.
std::uint64_t results_digest(const std::vector<inject::CampaignRun>& runs) {
  return analysis::results_digest(runs);
}

double per_restore(std::uint64_t total, std::uint64_t restores) {
  return restores == 0 ? 0.0
                       : static_cast<double>(total) / static_cast<double>(restores);
}

void print_mode(std::FILE* out, const ModeResult& mode, bool last) {
  const machine::PerfStats& perf = mode.stats.perf;
  const double rate =
      mode.seconds > 0.0 ? static_cast<double>(mode.runs) / mode.seconds : 0.0;
  const std::uint64_t decode_total = perf.decode_hits + perf.decode_misses;
  const std::uint64_t resumes =
      mode.stats.checkpoint_hits + mode.stats.checkpoint_misses;
  const std::uint64_t block_entries = perf.block_builds + perf.block_hits;
  std::fprintf(
      out,
      "    \"%s\": {\n"
      "      \"seconds\": %.3f,\n"
      "      \"runs\": %llu,\n"
      "      \"runs_per_sec\": %.2f,\n"
      "      \"restores\": %llu,\n"
      "      \"ram_bytes_per_restore\": %.1f,\n"
      "      \"disk_blocks_restored\": %llu,\n"
      "      \"checkpoints_taken\": %llu,\n"
      "      \"checkpoint_hits\": %llu,\n"
      "      \"checkpoint_misses\": %llu,\n"
      "      \"checkpoint_hit_rate\": %.4f,\n"
      "      \"reconverged\": %llu,\n"
      "      \"ticks_dropped\": %llu,\n"
      "      \"shadow_builds\": %llu,\n"
      "      \"shadow_build_cycles\": %llu,\n"
      "      \"shadow_reconverged\": %llu,\n"
      "      \"dead_byte_reconverged\": %llu,\n"
      "      \"pre_trigger_cycles\": %llu,\n"
      "      \"post_trigger_cycles\": %llu,\n"
      "      \"decode_hit_rate\": %.4f,\n"
      "      \"block_builds\": %llu,\n"
      "      \"block_hits\": %llu,\n"
      "      \"block_hit_rate\": %.4f,\n"
      "      \"block_fallbacks\": %llu,\n"
      "      \"block_invalidations\": %llu,\n"
      "      \"block_ops\": %llu,\n"
      "      \"avg_block_len\": %.2f,\n"
      "      \"chain_follows\": %llu,\n"
      "      \"chain_breaks\": %llu,\n"
      "      \"avg_trace_len\": %.2f,\n"
      "      \"trace_events\": %llu,\n"
      "      \"trace_dropped\": %llu\n"
      "    }%s\n",
      mode.name.c_str(), mode.seconds,
      static_cast<unsigned long long>(mode.runs), rate,
      static_cast<unsigned long long>(perf.restores),
      per_restore(perf.bytes_restored, perf.restores),
      static_cast<unsigned long long>(perf.disk_blocks_restored),
      static_cast<unsigned long long>(perf.checkpoints_taken),
      static_cast<unsigned long long>(mode.stats.checkpoint_hits),
      static_cast<unsigned long long>(mode.stats.checkpoint_misses),
      resumes == 0 ? 0.0
                   : static_cast<double>(mode.stats.checkpoint_hits) /
                         static_cast<double>(resumes),
      static_cast<unsigned long long>(mode.stats.reconverged),
      static_cast<unsigned long long>(mode.stats.ticks_dropped),
      static_cast<unsigned long long>(mode.stats.shadow_builds),
      static_cast<unsigned long long>(mode.stats.shadow_build_cycles),
      static_cast<unsigned long long>(mode.stats.shadow_reconverged),
      static_cast<unsigned long long>(mode.stats.dead_byte_reconverged),
      static_cast<unsigned long long>(mode.stats.pre_trigger_cycles),
      static_cast<unsigned long long>(mode.stats.post_trigger_cycles),
      decode_total == 0 ? 0.0
                        : static_cast<double>(perf.decode_hits) /
                              static_cast<double>(decode_total),
      static_cast<unsigned long long>(perf.block_builds),
      static_cast<unsigned long long>(perf.block_hits),
      block_entries + perf.block_fallbacks == 0
          ? 0.0
          : static_cast<double>(perf.block_hits) /
                static_cast<double>(block_entries + perf.block_fallbacks),
      static_cast<unsigned long long>(perf.block_fallbacks),
      static_cast<unsigned long long>(perf.block_invalidations),
      static_cast<unsigned long long>(perf.block_ops),
      block_entries == 0 ? 0.0
                         : static_cast<double>(perf.block_ops) /
                               static_cast<double>(block_entries),
      static_cast<unsigned long long>(perf.chain_follows),
      static_cast<unsigned long long>(perf.chain_breaks),
      perf.block_builds == 0 ? 0.0
                             : static_cast<double>(perf.trace_len) /
                                   static_cast<double>(perf.block_builds),
      static_cast<unsigned long long>(perf.trace_events),
      static_cast<unsigned long long>(perf.trace_dropped),
      last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_throughput.json";
  unsigned jobs = analysis::jobs_from_env();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      if (!parse_jobs(argv[i + 1], jobs)) {
        std::fprintf(stderr, "error: --jobs expects an integer in "
                             "[1, 1024], got '%s'\n", argv[i + 1]);
        return 2;
      }
      ++i;
    }
  }
  // --jobs N swaps the hardcoded {1,2,4,8} ladders for {1, N}: the
  // 1-entry stays as the speedup baseline.
  std::vector<unsigned> sweep_counts = {1u, 2u, 4u, 8u};
  if (jobs != 0) {
    sweep_counts = {1u};
    if (jobs != 1) sweep_counts.push_back(jobs);
  }

  inject::InjectorOptions baseline_options;
  baseline_options.checkpoints = 0;
  baseline_options.full_restore = true;
  baseline_options.exec_engine = machine::ExecEngine::Step;
  const ModeResult baseline = run_mode("baseline_full_restore",
                                       baseline_options);

  inject::InjectorOptions ladder_options;
  ladder_options.exec_engine = machine::ExecEngine::Step;
  const ModeResult ladder = run_mode("checkpoint_ladder", ladder_options);

  // Hard gate: the ladder may not change a single result.
  for (std::size_t i = 0; i < ladder.campaigns.size(); ++i) {
    const check::RunComparison vs_ladder =
        check::compare_runs(baseline.campaigns[i], ladder.campaigns[i]);
    if (!vs_ladder.identical()) {
      std::fprintf(stderr,
                   "FAIL: campaign %zu diverged between baseline and ladder "
                   "(%zu mismatches of %zu)\n",
                   i, vs_ladder.mismatches.size(), vs_ladder.compared);
      return 1;
    }
  }
  const std::uint64_t digest = results_digest(ladder.campaigns);

  // Chained dispatch leg: trace widening + block-to-block successor
  // links + the inline translate cache, under the same hard gate — the
  // campaign digest must be bit-identical to the stepper's.
  inject::InjectorOptions chained_options;
  chained_options.exec_engine = machine::ExecEngine::Chained;
  const ModeResult chained = run_mode("block_chained", chained_options);
  for (std::size_t i = 0; i < chained.campaigns.size(); ++i) {
    const check::RunComparison vs_chained =
        check::compare_runs(baseline.campaigns[i], chained.campaigns[i]);
    if (!vs_chained.identical()) {
      std::fprintf(stderr,
                   "FAIL: campaign %zu diverged between baseline and chained "
                   "dispatch (%zu mismatches of %zu)\n",
                   i, vs_chained.mismatches.size(), vs_chained.compared);
      return 1;
    }
  }
  const std::uint64_t chained_digest = results_digest(chained.campaigns);
  if (chained_digest != digest) {
    std::fprintf(stderr,
                 "FAIL: chained-dispatch result digest %016llx != %016llx\n",
                 static_cast<unsigned long long>(chained_digest),
                 static_cast<unsigned long long>(digest));
    return 1;
  }

  // Trace-on leg: the chained engine with the forensics trace attached.
  // The trace layer's observational contract is gated here — recording
  // may cost wall clock, but not a single result bit.
  inject::InjectorOptions trace_options = chained_options;
  trace_options.trace_capacity = trace::TraceBuffer::kDefaultCapacity;
  const ModeResult traced = run_mode("trace", trace_options);
  for (std::size_t i = 0; i < traced.campaigns.size(); ++i) {
    const check::RunComparison vs_trace =
        check::compare_runs(baseline.campaigns[i], traced.campaigns[i]);
    if (!vs_trace.identical()) {
      std::fprintf(stderr,
                   "FAIL: campaign %zu diverged with tracing enabled "
                   "(%zu mismatches of %zu)\n",
                   i, vs_trace.mismatches.size(), vs_trace.compared);
      return 1;
    }
  }
  const std::uint64_t trace_digest = results_digest(traced.campaigns);
  if (trace_digest != digest) {
    std::fprintf(stderr,
                 "FAIL: trace-on result digest %016llx != %016llx\n",
                 static_cast<unsigned long long>(trace_digest),
                 static_cast<unsigned long long>(digest));
    return 1;
  }

  const double speedup =
      ladder.seconds > 0.0 ? baseline.seconds / ladder.seconds : 0.0;
  const double chained_speedup =
      chained.seconds > 0.0 ? ladder.seconds / chained.seconds : 0.0;
  const double total_speedup =
      chained.seconds > 0.0 ? baseline.seconds / chained.seconds : 0.0;
  // The component the ladder optimizes: pre-trigger replay simulated per
  // run.  Post-trigger simulation is inherent to the injected fault and
  // dominates wall clock on this population (hot-function targets
  // trigger on their first execution, early in the run), which bounds
  // the end-to-end ratio well below the setup ratio — see DESIGN.md.
  const double setup_speedup =
      ladder.stats.pre_trigger_cycles > 0
          ? static_cast<double>(baseline.stats.pre_trigger_cycles) /
                static_cast<double>(ladder.stats.pre_trigger_cycles)
          : 0.0;
  std::printf("baseline:     %6.2f s  (%.2f runs/s)\n", baseline.seconds,
              static_cast<double>(baseline.runs) / baseline.seconds);
  std::printf("ladder:       %6.2f s  (%.2f runs/s)\n", ladder.seconds,
              static_cast<double>(ladder.runs) / ladder.seconds);
  std::printf("block_chained:%6.2f s  (%.2f runs/s, %llu chain follows, "
              "%llu breaks)\n",
              chained.seconds,
              static_cast<double>(chained.runs) / chained.seconds,
              static_cast<unsigned long long>(chained.stats.perf.chain_follows),
              static_cast<unsigned long long>(chained.stats.perf.chain_breaks));
  std::printf(
      "speedup: ladder %.2fx, chained-over-ladder %.2fx, total %.2fx   "
      "result digest %016llx (identical)\n",
      speedup, chained_speedup, total_speedup,
      static_cast<unsigned long long>(digest));
  std::printf("pre-trigger replay: %.1fM -> %.1fM cycles (%.1fx less)\n",
              static_cast<double>(baseline.stats.pre_trigger_cycles) / 1e6,
              static_cast<double>(ladder.stats.pre_trigger_cycles) / 1e6,
              setup_speedup);
  const double trace_overhead =
      chained.seconds > 0.0 ? traced.seconds / chained.seconds : 0.0;
  std::printf("trace-on:     %6.2f s  (%.2fx of block_chained, %llu events, "
              "%llu dropped, digest identical)\n",
              traced.seconds, trace_overhead,
              static_cast<unsigned long long>(traced.stats.perf.trace_events),
              static_cast<unsigned long long>(traced.stats.perf.trace_dropped));

  // Worker-thread scaling sweep of the chained engine.  One GoldenCache
  // is prewarmed (golden runs + ladders for every workload the
  // campaigns touch) before the clock starts, so each entry times pure
  // injection work — and proves golden warm-up happens once per
  // workload total, not once per thread.
  auto sweep_cache = std::make_shared<inject::GoldenCache>(chained_options);
  {
    std::set<std::string> workloads;
    for (const inject::Campaign campaign : kCampaigns) {
      const std::vector<inject::InjectionSpec> targets =
          inject::campaign_targets(profile::default_profile(),
                                   check::smoke_config(campaign), nullptr);
      for (const inject::InjectionSpec& spec : targets) {
        workloads.insert(spec.workload);
      }
    }
    for (const std::string& w : workloads) sweep_cache->workload(w);
  }
  const std::uint64_t golden_builds = sweep_cache->golden_builds();
  const unsigned hardware = std::thread::hardware_concurrency();
  // On a single-core host the sweep's wall-clock ratios measure
  // scheduling overhead, not scaling; the JSON says so explicitly.
  const bool scaling_valid = hardware > 1;
  std::vector<ModeResult> sweep;
  for (const unsigned threads : sweep_counts) {
    sweep.push_back(run_mode("t" + std::to_string(threads), chained_options,
                             threads, sweep_cache));
    const ModeResult& entry = sweep.back();
    for (std::size_t i = 0; i < entry.campaigns.size(); ++i) {
      const check::RunComparison cmp =
          check::compare_runs(baseline.campaigns[i], entry.campaigns[i]);
      if (!cmp.identical()) {
        std::fprintf(stderr,
                     "FAIL: campaign %zu diverged at threads=%u "
                     "(%zu mismatches of %zu)\n",
                     i, threads, cmp.mismatches.size(), cmp.compared);
        return 1;
      }
    }
    const std::uint64_t entry_digest = results_digest(entry.campaigns);
    if (entry_digest != digest) {
      std::fprintf(stderr,
                   "FAIL: threads=%u result digest %016llx != %016llx\n",
                   threads, static_cast<unsigned long long>(entry_digest),
                   static_cast<unsigned long long>(digest));
      return 1;
    }
  }
  if (sweep_cache->golden_builds() != golden_builds) {
    std::fprintf(stderr, "FAIL: sweep rebuilt golden artifacts (%llu -> %llu)\n",
                 static_cast<unsigned long long>(golden_builds),
                 static_cast<unsigned long long>(sweep_cache->golden_builds()));
    return 1;
  }
  std::printf("threads sweep (block_chained, shared golden cache, "
              "%u hardware threads%s):\n", hardware,
              scaling_valid ? "" : ", scaling not valid on 1 core");
  for (const ModeResult& entry : sweep) {
    std::printf("  t=%u: %6.2f s  (%.2f runs/s, %.2fx vs t=1, "
                "%llu chunks, %llu steals)\n",
                entry.threads, entry.seconds,
                static_cast<double>(entry.runs) / entry.seconds,
                sweep[0].seconds / entry.seconds,
                static_cast<unsigned long long>(entry.stats.chunks),
                static_cast<unsigned long long>(entry.stats.steals));
  }

  // Worker-process sweep: the sharded campaign service end to end —
  // manifest, golden bundles (built once at w=1, mmap-adopted by every
  // later entry), forked workers, content-addressed shard artifacts,
  // streaming spec-order aggregation.  Gate: the aggregated digest
  // must equal the in-process digest at every worker count.
  struct ProcessEntry {
    unsigned workers = 0;
    double seconds = 0.0;
    serve::ServiceResult result;
  };
  std::vector<ProcessEntry> process_sweep;
  const std::string serve_root = "kfi-serve-bench";
  for (const unsigned workers : sweep_counts) {
    serve::ServiceConfig service;
    for (const inject::Campaign campaign : kCampaigns) {
      service.campaigns.push_back(check::smoke_config(campaign));
    }
    service.options = chained_options;
    service.dir = serve_root + "/w" + std::to_string(workers);
    service.bundle_dir = serve_root + "/bundles";  // shared: built once
    service.workers = workers;
    service.fresh = true;
    const auto begin = std::chrono::steady_clock::now();
    serve::ServiceResult result = serve::run_service(service);
    const auto end = std::chrono::steady_clock::now();
    if (!result.ok) {
      std::fprintf(stderr, "FAIL: campaign service at workers=%u: %s\n",
                   workers, result.error.c_str());
      return 1;
    }
    if (result.digest != digest) {
      std::fprintf(stderr,
                   "FAIL: workers=%u sharded digest %016llx != %016llx\n",
                   workers, static_cast<unsigned long long>(result.digest),
                   static_cast<unsigned long long>(digest));
      return 1;
    }
    ProcessEntry entry;
    entry.workers = workers;
    entry.seconds = std::chrono::duration<double>(end - begin).count();
    entry.result = std::move(result);
    process_sweep.push_back(std::move(entry));
  }
  std::printf("process sweep (sharded service, forked workers, "
              "%u hardware threads%s):\n", hardware,
              scaling_valid ? "" : ", scaling not valid on 1 core");
  for (const ProcessEntry& entry : process_sweep) {
    std::printf("  w=%u: %6.2f s  (%.2fx vs w=1, %llu shards, "
                "%llu steals, digest identical)\n",
                entry.workers, entry.seconds,
                process_sweep[0].seconds / entry.seconds,
                static_cast<unsigned long long>(entry.result.shard_count),
                static_cast<unsigned long long>(entry.result.steals));
  }

  // Fault-model leg: campaigns D (register-file bit flips), E (kernel
  // data bit flips), F (syscall errno injection) under the same hard
  // gates as A/B/C — the stepper and the chained engine must agree bit
  // for bit, and the sharded service must reproduce the in-process
  // digest at every worker count.
  constexpr inject::Campaign kFaultModelCampaigns[] = {
      inject::Campaign::RegisterFile,
      inject::Campaign::KernelData,
      inject::Campaign::SyscallErrno,
  };
  std::vector<inject::CampaignRun> fm_step;
  std::vector<inject::CampaignRun> fm_fast;
  {
    inject::Injector step_injector(baseline_options);
    inject::Injector fast_injector(chained_options);
    for (const inject::Campaign campaign : kFaultModelCampaigns) {
      const inject::CampaignConfig config = check::smoke_config(campaign);
      fm_step.push_back(inject::run_campaign(
          step_injector, profile::default_profile(), config));
      fm_fast.push_back(inject::run_campaign(
          fast_injector, profile::default_profile(), config));
    }
  }
  std::uint64_t fm_campaign_digest[3] = {0, 0, 0};
  for (std::size_t i = 0; i < fm_fast.size(); ++i) {
    const char letter = static_cast<char>('D' + i);
    const check::RunComparison cmp =
        check::compare_runs(fm_step[i], fm_fast[i]);
    if (!cmp.identical()) {
      std::fprintf(stderr,
                   "FAIL: campaign %c diverged between stepper and chained "
                   "(%zu mismatches of %zu)\n",
                   letter, cmp.mismatches.size(), cmp.compared);
      return 1;
    }
    analysis::ResultDigest one;
    for (const inject::InjectionResult& r : fm_fast[i].results) one.add(r);
    fm_campaign_digest[i] = one.value();
  }
  const std::uint64_t fm_digest = results_digest(fm_fast);
  for (const unsigned workers : sweep_counts) {
    serve::ServiceConfig service;
    for (const inject::Campaign campaign : kFaultModelCampaigns) {
      service.campaigns.push_back(check::smoke_config(campaign));
    }
    service.options = chained_options;
    service.dir = serve_root + "/def-w" + std::to_string(workers);
    service.bundle_dir = serve_root + "/bundles";  // shared with A/B/C
    service.workers = workers;
    service.fresh = true;
    const serve::ServiceResult result = serve::run_service(service);
    if (!result.ok) {
      std::fprintf(stderr, "FAIL: D/E/F campaign service at workers=%u: %s\n",
                   workers, result.error.c_str());
      return 1;
    }
    if (result.digest != fm_digest) {
      std::fprintf(stderr,
                   "FAIL: workers=%u D/E/F sharded digest %016llx != %016llx\n",
                   workers, static_cast<unsigned long long>(result.digest),
                   static_cast<unsigned long long>(fm_digest));
      return 1;
    }
  }
  std::printf("fault models: D %016llx, E %016llx, F %016llx "
              "(stepper == chained == sharded, fold %016llx)\n",
              static_cast<unsigned long long>(fm_campaign_digest[0]),
              static_cast<unsigned long long>(fm_campaign_digest[1]),
              static_cast<unsigned long long>(fm_campaign_digest[2]),
              static_cast<unsigned long long>(fm_digest));

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"throughput\",\n  \"modes\": {\n");
  print_mode(out, baseline, false);
  print_mode(out, ladder, false);
  print_mode(out, chained, false);
  print_mode(out, traced, true);
  std::fprintf(out,
               "  },\n"
               "  \"speedup\": %.3f,\n"
               "  \"chained_speedup\": %.3f,\n"
               "  \"total_speedup\": %.3f,\n"
               "  \"pre_trigger_speedup\": %.3f,\n"
               "  \"trace_overhead\": %.3f,\n"
               "  \"chained_gate\": {\"chained_identical\": true, "
               "\"result_digest\": \"%016llx\"},\n"
               "  \"trace_gate\": {\"trace_identical\": true, "
               "\"result_digest\": \"%016llx\"},\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"scaling_valid\": %s,\n"
               "  \"sweep_golden_builds\": %llu,\n"
               "  \"threads_sweep\": [\n",
               speedup, chained_speedup, total_speedup, setup_speedup,
               trace_overhead, static_cast<unsigned long long>(chained_digest),
               static_cast<unsigned long long>(trace_digest), hardware,
               scaling_valid ? "true" : "false",
               static_cast<unsigned long long>(golden_builds));
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ModeResult& entry = sweep[i];
    std::fprintf(out,
                 "    {\"threads\": %u, \"seconds\": %.3f, \"runs\": %llu, "
                 "\"runs_per_sec\": %.2f, \"speedup_vs_t1\": %.3f, "
                 "\"chunks\": %llu, \"steals\": %llu, "
                 "\"hardware_concurrency\": %u, \"scaling_valid\": %s, "
                 "\"results_identical\": true, "
                 "\"result_digest\": \"%016llx\"}%s\n",
                 entry.threads, entry.seconds,
                 static_cast<unsigned long long>(entry.runs),
                 static_cast<double>(entry.runs) / entry.seconds,
                 sweep[0].seconds / entry.seconds,
                 static_cast<unsigned long long>(entry.stats.chunks),
                 static_cast<unsigned long long>(entry.stats.steals),
                 hardware, scaling_valid ? "true" : "false",
                 static_cast<unsigned long long>(digest),
                 i + 1 == sweep.size() ? "" : ",");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"sweep_identical\": true,\n"
               "  \"process_sweep\": [\n");
  for (std::size_t i = 0; i < process_sweep.size(); ++i) {
    const ProcessEntry& entry = process_sweep[i];
    std::fprintf(
        out,
        "    {\"workers\": %u, \"seconds\": %.3f, \"runs\": %llu, "
        "\"runs_per_sec\": %.2f, \"speedup_vs_w1\": %.3f, "
        "\"shards\": %llu, \"shards_executed\": %llu, "
        "\"shards_resumed\": %llu, \"steals\": %llu, "
        "\"bundles_built\": %llu, \"bundles_adopted\": %llu, "
        "\"attempts\": %d, "
        "\"hardware_concurrency\": %u, \"scaling_valid\": %s, "
        "\"sharded_identical\": true, "
        "\"result_digest\": \"%016llx\"}%s\n",
        entry.workers, entry.seconds,
        static_cast<unsigned long long>(entry.result.total_runs),
        entry.seconds > 0.0
            ? static_cast<double>(entry.result.total_runs) / entry.seconds
            : 0.0,
        process_sweep[0].seconds / entry.seconds,
        static_cast<unsigned long long>(entry.result.shard_count),
        static_cast<unsigned long long>(entry.result.shards_executed),
        static_cast<unsigned long long>(entry.result.shards_resumed),
        static_cast<unsigned long long>(entry.result.steals),
        static_cast<unsigned long long>(entry.result.bundles_built),
        static_cast<unsigned long long>(entry.result.bundles_adopted),
        entry.result.attempts, hardware, scaling_valid ? "true" : "false",
        static_cast<unsigned long long>(entry.result.digest),
        i + 1 == process_sweep.size() ? "" : ",");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"sharded_gate\": {\"sharded_identical\": true, "
               "\"result_digest\": \"%016llx\"},\n"
               "  \"fault_model_gate\": {\"campaignD_identical\": true, "
               "\"campaignD_digest\": \"%016llx\", "
               "\"campaignE_identical\": true, "
               "\"campaignE_digest\": \"%016llx\", "
               "\"campaignF_identical\": true, "
               "\"campaignF_digest\": \"%016llx\", "
               "\"def_sharded_identical\": true, "
               "\"def_digest\": \"%016llx\"},\n"
               "  \"results_identical\": true,\n"
               "  \"result_digest\": \"%016llx\"\n"
               "}\n",
               static_cast<unsigned long long>(digest),
               static_cast<unsigned long long>(fm_campaign_digest[0]),
               static_cast<unsigned long long>(fm_campaign_digest[1]),
               static_cast<unsigned long long>(fm_campaign_digest[2]),
               static_cast<unsigned long long>(fm_digest),
               static_cast<unsigned long long>(digest));
  std::fclose(out);
  return 0;
}
