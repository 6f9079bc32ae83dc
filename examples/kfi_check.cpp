// kfi_check — the expected-shape regression harness front end.
//
//   kfi_check shape smoke             tier-1 oracles on a sub-minute run
//   kfi_check shape full [...]        EXPERIMENTS.md oracles on the
//                                     default-scale campaigns (cached)
//   kfi_check replay <file.kfi> [...] re-execute persisted injections and
//                                     compare bit-for-bit
//   kfi_check determinism [...]       threads=1 vs threads=N identical
//
// Exit status 0 = every check passed, 1 = at least one failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/io.h"
#include "analysis/render.h"
#include "analysis/store.h"
#include "check/expectations.h"
#include "check/replay.h"
#include "inject/campaign.h"
#include "profile/profile.h"
#include "support/strings.h"

namespace {

using namespace kfi;
using analysis::require_u64;

// Strict numeric flag parsing everywhere: a worker count of "4x" or
// "0" aborts with exit 2 instead of being atoi'd into something that
// silently runs the wrong experiment.  --jobs and --threads are
// synonyms here; KFI_JOBS supplies the default when set.
unsigned require_jobs(const char* flag, const char* text) {
  unsigned jobs = 0;
  if (!parse_jobs(text, jobs)) {
    std::fprintf(stderr, "error: %s expects an integer in [1, 1024], "
                         "got '%s'\n", flag, text);
    std::exit(2);
  }
  return jobs;
}

int usage() {
  std::printf(
      "usage: kfi_check <command> [args]\n"
      "  shape smoke [--threads N | --jobs N]\n"
      "                            run the fixed smoke campaigns (A and C\n"
      "                            over %zu hot functions) and evaluate\n"
      "                            the smoke oracles\n"
      "  shape extended [--threads N | --jobs N]\n"
      "                            run the fault-model smoke campaigns\n"
      "                            (D registers, E kernel data, F syscall\n"
      "                            errno), evaluate their oracles and\n"
      "                            print their result fold\n"
      "  shape full [--scale N --seed N --cache DIR --no-cache --quiet\n"
      "              --threads N | --jobs N]\n"
      "                            evaluate the EXPERIMENTS.md oracles on\n"
      "                            the full-scale A/B/C campaigns\n"
      "  replay <file.kfi> [--samples N]\n"
      "                            replay N runs per outcome category\n"
      "                            (default 1) from a persisted campaign\n"
      "                            and require bit-for-bit equality; also\n"
      "                            checks the sampled specs regenerate\n"
      "                            from (campaign, seed, repeats)\n"
      "  replay <file.kfi> --index N\n"
      "                            replay exactly result #N\n"
      "  determinism [--threads N | --jobs N] [--campaign A|B|C|D|E|F]\n"
      "                            run the smoke campaign with threads=1\n"
      "                            and threads=N (default 4) and require\n"
      "                            identical result vectors\n",
      check::smoke_functions().size());
  return 2;
}

// Prints a CampaignRun's aggregated counters.  These fold in every
// worker Injector, so at threads>1 they describe the whole campaign,
// not just the caller's thread.
void print_campaign_stats(const inject::CampaignStats& cs) {
  const machine::PerfStats& stats = cs.perf;
  const std::uint64_t decode_total = stats.decode_hits + stats.decode_misses;
  const std::uint64_t resumes = cs.checkpoint_hits + cs.checkpoint_misses;
  std::printf(
      "perf: %llu restores (%.1f KiB RAM + %llu disk blocks per restore), "
      "checkpoint hit rate %.1f%%, decode cache %.2f%%, "
      "pre/post-trigger %.1fM/%.1fM cycles, %llu reconverged "
      "(%llu at a dead data byte)\n",
      static_cast<unsigned long long>(stats.restores),
      stats.restores == 0
          ? 0.0
          : static_cast<double>(stats.bytes_restored) / 1024.0 /
                static_cast<double>(stats.restores),
      static_cast<unsigned long long>(
          stats.restores == 0 ? 0 : stats.disk_blocks_restored / stats.restores),
      resumes == 0 ? 0.0
                   : 100.0 * static_cast<double>(cs.checkpoint_hits) /
                         static_cast<double>(resumes),
      decode_total == 0 ? 0.0
                        : 100.0 * static_cast<double>(stats.decode_hits) /
                              static_cast<double>(decode_total),
      static_cast<double>(cs.pre_trigger_cycles) / 1e6,
      static_cast<double>(cs.post_trigger_cycles) / 1e6,
      static_cast<unsigned long long>(cs.reconverged),
      static_cast<unsigned long long>(cs.dead_byte_reconverged));
  if (cs.ticks_dropped > 0) {
    std::printf(
        "perf: %llu triggers dropped a tick, %llu shadow ladders built "
        "(%.1fM cycles), %llu reconverged onto a shadow\n",
        static_cast<unsigned long long>(cs.ticks_dropped),
        static_cast<unsigned long long>(cs.shadow_builds),
        static_cast<double>(cs.shadow_build_cycles) / 1e6,
        static_cast<unsigned long long>(cs.shadow_reconverged));
  }
  if (cs.threads_used > 1) {
    std::printf("perf: %u threads, %llu shards, %llu steals\n",
                cs.threads_used, static_cast<unsigned long long>(cs.shards),
                static_cast<unsigned long long>(cs.steals));
  }
  if (stats.block_builds + stats.block_hits + stats.block_fallbacks > 0) {
    const std::uint64_t entries = stats.block_builds + stats.block_hits;
    std::printf(
        "perf: blocks %llu built, %llu hits, %llu fallbacks, "
        "%llu invalidations, avg block len %.1f, "
        "%llu fused groups, %llu fused declines\n",
        static_cast<unsigned long long>(stats.block_builds),
        static_cast<unsigned long long>(stats.block_hits),
        static_cast<unsigned long long>(stats.block_fallbacks),
        static_cast<unsigned long long>(stats.block_invalidations),
        entries == 0 ? 0.0
                     : static_cast<double>(stats.block_ops) /
                           static_cast<double>(entries),
        static_cast<unsigned long long>(stats.fused_groups),
        static_cast<unsigned long long>(stats.fused_declines));
  }
  if (stats.trace_events + stats.trace_dropped > 0) {
    std::printf("perf: trace %llu events recorded, %llu dropped\n",
                static_cast<unsigned long long>(stats.trace_events),
                static_cast<unsigned long long>(stats.trace_dropped));
  }
}

// Set-up time and where the golden memory went: the golden builds
// (with their capture passes' simulation rate) and the profile, the
// cache's one base image, its boot deltas and ladders, and the machines
// the campaigns' injectors built.
void print_cache_stats(const inject::GoldenCache& cache,
                       const profile::ProfileResult& prof,
                       const inject::CampaignStats& cs) {
  const inject::GoldenCache::HeldBytes held = cache.held_bytes();
  constexpr double kMiB = 1024.0 * 1024.0;
  std::printf(
      "perf: %llu golden builds, %.2f s (capture pass %.0f Mcycles/s); "
      "profile %.2f s; cache holds base %.1f MiB, boot deltas %.2f MiB, "
      "ladders %.1f MiB; %llu injector machines\n",
      static_cast<unsigned long long>(cache.golden_builds()),
      cache.build_seconds(), cache.capture_mcycles_per_s(), prof.seconds,
      static_cast<double>(held.base) / kMiB,
      static_cast<double>(held.boots) / kMiB,
      static_cast<double>(held.ladders) / kMiB,
      static_cast<unsigned long long>(cs.machines));
}

inject::Campaign parse_campaign(const char* arg) {
  switch (arg[0]) {
    case 'B': return inject::Campaign::RandomBranch;
    case 'C': return inject::Campaign::IncorrectBranch;
    case 'D': return inject::Campaign::RegisterFile;
    case 'E': return inject::Campaign::KernelData;
    case 'F': return inject::Campaign::SyscallErrno;
    default: return inject::Campaign::RandomNonBranch;
  }
}

int cmd_shape(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string scale = argv[2];
  if (scale == "smoke") {
    unsigned threads = analysis::jobs_from_env() != 0
                           ? analysis::jobs_from_env()
                           : 1;
    for (int i = 3; i < argc; ++i) {
      if ((std::strcmp(argv[i], "--threads") == 0 ||
           std::strcmp(argv[i], "--jobs") == 0) &&
          i + 1 < argc) {
        threads = require_jobs(argv[i], argv[i + 1]);
        ++i;
      }
    }
    inject::Injector injector;
    const auto& prof = profile::default_profile();
    inject::CampaignConfig config_a =
        check::smoke_config(inject::Campaign::RandomNonBranch);
    inject::CampaignConfig config_c =
        check::smoke_config(inject::Campaign::IncorrectBranch);
    config_a.threads = threads;
    config_c.threads = threads;
    const inject::CampaignRun a = inject::run_campaign(injector, prof, config_a);
    const inject::CampaignRun c = inject::run_campaign(injector, prof, config_c);
    const check::ShapeReport report = check::evaluate_smoke(a, c);
    std::fputs(check::render_report(report).c_str(), stdout);
    inject::CampaignStats totals = a.stats;
    totals += c.stats;
    totals.shards = a.stats.shards + c.stats.shards;
    totals.steals = a.stats.steals + c.stats.steals;
    print_campaign_stats(totals);
    print_cache_stats(*injector.cache(), prof, totals);
    return report.all_pass() ? 0 : 1;
  }
  if (scale == "extended") {
    unsigned threads = analysis::jobs_from_env() != 0
                           ? analysis::jobs_from_env()
                           : 1;
    for (int i = 3; i < argc; ++i) {
      if ((std::strcmp(argv[i], "--threads") == 0 ||
           std::strcmp(argv[i], "--jobs") == 0) &&
          i + 1 < argc) {
        threads = require_jobs(argv[i], argv[i + 1]);
        ++i;
      }
    }
    inject::Injector injector;
    const auto& prof = profile::default_profile();
    std::vector<inject::CampaignRun> runs;
    for (const inject::Campaign campaign :
         {inject::Campaign::RegisterFile, inject::Campaign::KernelData,
          inject::Campaign::SyscallErrno}) {
      inject::CampaignConfig config = check::smoke_config(campaign);
      config.threads = threads;
      runs.push_back(inject::run_campaign(injector, prof, config));
    }
    const check::ShapeReport report =
        check::evaluate_smoke_extended(runs[0], runs[1], runs[2]);
    std::fputs(check::render_report(report).c_str(), stdout);
    std::fputs(
        analysis::render_cascade(analysis::make_cascade(runs[2])).c_str(),
        stdout);
    std::printf("D/E/F result fold: %016llx\n",
                static_cast<unsigned long long>(analysis::results_digest(runs)));
    inject::CampaignStats totals = runs[0].stats;
    totals += runs[1].stats;
    totals += runs[2].stats;
    print_campaign_stats(totals);
    print_cache_stats(*injector.cache(), prof, totals);
    return report.all_pass() ? 0 : 1;
  }
  if (scale != "full") return usage();

  // Shift "shape full" off argv so parse_bench_options sees the flags.
  const analysis::BenchOptions options =
      analysis::parse_bench_options(argc - 2, argv + 2);
  inject::Injector injector;
  const inject::CampaignRun a = analysis::bench_campaign(
      injector, inject::Campaign::RandomNonBranch, options);
  const inject::CampaignRun b = analysis::bench_campaign(
      injector, inject::Campaign::RandomBranch, options);
  const inject::CampaignRun c = analysis::bench_campaign(
      injector, inject::Campaign::IncorrectBranch, options);
  const check::ShapeReport report = check::evaluate_full(a, b, c);
  std::fputs(check::render_report(report).c_str(), stdout);
  inject::CampaignStats totals = a.stats;
  totals += b.stats;
  totals += c.stats;
  print_cache_stats(*injector.cache(), profile::default_profile(), totals);
  return report.all_pass() ? 0 : 1;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string path = argv[2];
  auto run = analysis::load_campaign(path);
  if (!run.has_value()) {
    std::printf("cannot load campaign file '%s'\n", path.c_str());
    return 1;
  }

  std::size_t samples = 1;
  long index = -1;
  std::uint64_t seed = 2003;
  int repeats = 1;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      samples = static_cast<std::size_t>(
          require_u64("--samples", argv[++i], 1, 1'000'000));
    } else if (std::strcmp(argv[i], "--index") == 0 && i + 1 < argc) {
      index = static_cast<long>(
          require_u64("--index", argv[++i], 0, 1'000'000'000));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = require_u64("--seed", argv[++i], 0, UINT64_MAX);
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      repeats = static_cast<int>(
          require_u64("--scale", argv[++i], 1, 1'000'000));
    }
  }

  inject::Injector injector;
  check::ReplayReport report;
  if (index >= 0) {
    if (static_cast<std::size_t>(index) >= run->results.size()) {
      std::printf("index out of range (0..%zu)\n", run->results.size() - 1);
      return 1;
    }
    report.replays.push_back(
        check::replay_one(injector, *run, static_cast<std::size_t>(index)));
  } else {
    report = check::replay_samples(injector, *run, samples);
    // The persisted spec must also regenerate from (campaign, seed,
    // repeats): proves the target list itself is deterministic.
    inject::CampaignConfig config;
    config.campaign = run->campaign;
    config.seed = seed;
    config.repeats = repeats;
    const std::vector<inject::InjectionSpec> regenerated =
        inject::campaign_targets(profile::default_profile(), config, nullptr);
    if (regenerated.size() != run->results.size()) {
      std::printf("regenerated %zu targets but file holds %zu; pass the"
                  " original --seed/--scale\n",
                  regenerated.size(), run->results.size());
      return 1;
    }
    for (const check::ReplayOutcome& replay : report.replays) {
      std::vector<check::FieldDiff> diffs = check::diff_specs(
          run->results[replay.index].spec, regenerated[replay.index]);
      if (!diffs.empty()) {
        report.spec_mismatches.emplace_back(replay.index, std::move(diffs));
      }
    }
  }
  std::fputs(check::render_replay(report).c_str(), stdout);
  return report.all_identical() ? 0 : 1;
}

int cmd_determinism(int argc, char** argv) {
  unsigned threads = analysis::jobs_from_env() != 0
                         ? analysis::jobs_from_env()
                         : 4;
  inject::Campaign campaign = inject::Campaign::IncorrectBranch;
  for (int i = 2; i < argc; ++i) {
    if ((std::strcmp(argv[i], "--threads") == 0 ||
         std::strcmp(argv[i], "--jobs") == 0) &&
        i + 1 < argc) {
      threads = require_jobs(argv[i], argv[i + 1]);
      ++i;
    } else if (std::strcmp(argv[i], "--campaign") == 0 && i + 1 < argc) {
      campaign = parse_campaign(argv[++i]);
    }
  }

  const auto& prof = profile::default_profile();
  inject::CampaignConfig config = check::smoke_config(campaign);

  inject::Injector serial;
  config.threads = 1;
  const inject::CampaignRun one = inject::run_campaign(serial, prof, config);

  inject::Injector parallel;
  config.threads = threads;
  const inject::CampaignRun many = inject::run_campaign(parallel, prof, config);

  const check::RunComparison comparison = check::compare_runs(one, many);
  if (comparison.identical()) {
    std::printf("threads=1 and threads=%u produced identical vectors"
                " (%zu results)\n",
                threads, comparison.compared);
    print_campaign_stats(many.stats);
    return 0;
  }
  if (comparison.size_mismatch) {
    std::printf("result vector sizes differ: %zu vs %zu\n", one.results.size(),
                many.results.size());
    return 1;
  }
  std::printf("%zu of %zu results differ between threads=1 and threads=%u\n",
              comparison.mismatches.size(), comparison.compared, threads);
  for (const auto& [index, diffs] : comparison.mismatches) {
    std::printf("  #%zu %s:\n", index,
                one.results[index].spec.function.c_str());
    for (const check::FieldDiff& diff : diffs) {
      std::printf("    %-16s %s vs %s\n", diff.field.c_str(),
                  diff.recorded.c_str(), diff.replayed.c_str());
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "shape") return cmd_shape(argc, argv);
  if (command == "replay") return cmd_replay(argc, argv);
  if (command == "determinism") return cmd_determinism(argc, argv);
  return usage();
}
