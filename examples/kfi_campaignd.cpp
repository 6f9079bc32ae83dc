// kfi_campaignd — the process-sharded campaign service CLI.
//
// One controller process splits the smoke campaign triple (A/B/C, seed
// 2003) into a manifest of shards, serializes each workload's golden
// bundle once, and drives N forked workers that stream per-shard
// results into the sealed artifact store.  Every subcommand
// is also available standalone, so the pieces can be driven across
// machines sharing a directory:
//
//   kfi_campaignd run --dir DIR --workers 4 [--verify-inprocess]
//   kfi_campaignd prepare --dir DIR --workers 4
//   kfi_campaignd worker --dir DIR --id 2 --workers 4
//   kfi_campaignd aggregate --dir DIR [--json FILE]
//
// --campaigns selects which smoke campaigns the service shards:
// letters A..F in any order (default ABC; DEF runs the fault-model
// triple — register flips, kernel-data flips, syscall errno).
//
// The contract gated by --verify-inprocess (and by tier-1 CI): the
// sharded digest is bit-identical to the in-process run_campaign()
// path — 54fdd95d1638c920 on the smoke triple — at any worker count,
// including after a kill-and-resume.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "analysis/io.h"
#include "analysis/store.h"
#include "check/expectations.h"
#include "check/replay.h"
#include "inject/campaign.h"
#include "profile/profile.h"
#include "serve/service.h"
#include "support/strings.h"

namespace {

using namespace kfi;
using analysis::require_u64;

struct CliOptions {
  std::string command;
  std::string dir = "kfi-campaignd";
  std::string campaigns = "ABC";
  std::string json_path;
  unsigned workers = 2;
  unsigned worker_id = 0;
  std::uint64_t max_shards = 0;
  std::uint64_t seed = 2003;
  int repeats = 1;
  bool fresh = false;
  bool verify_inprocess = false;
  bool verbose = false;
};

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: kfi_campaignd <run|prepare|worker|aggregate> [options]\n"
      "  --dir DIR           campaign directory (manifest, shards, claims)\n"
      "  --campaigns LIST    campaign letters A..F (default ABC; DEF runs\n"
      "                      the fault-model triple)\n"
      "  --workers N         worker processes (strict, 1..1024; also "
      "KFI_JOBS);\n"
      "                      the manifest cuts %llu shards per worker\n"
      "  --seed N            campaign RNG seed (default 2003)\n"
      "  --scale N           random-campaign repeat factor (default 1)\n"
      "  --fresh             discard existing shards and manifest\n"
      "  --id N              worker: this worker's index\n"
      "  --max-shards N      worker/run: stop each worker after N shards\n"
      "                      (simulates a killed worker; the next run\n"
      "                      resumes from its completed shards)\n"
      "  --verify-inprocess  run: also run the in-process path and gate\n"
      "                      bit-identity of every result\n"
      "  --json FILE         write a machine-readable summary\n"
      "  --verbose           per-worker bundle adoption and per-shard\n"
      "                      progress on stderr\n",
      static_cast<unsigned long long>(inject::kShardsPerWorker));
  std::exit(code);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  if (argc < 2) usage(2);
  options.command = argv[1];
  options.workers = analysis::jobs_from_env() != 0
                        ? analysis::jobs_from_env()
                        : options.workers;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--dir" && has_value) {
      options.dir = argv[++i];
    } else if (arg == "--campaigns" && has_value) {
      options.campaigns = argv[++i];
      if (options.campaigns.empty()) {
        std::fprintf(stderr, "error: --campaigns expects letters A..F\n");
        std::exit(2);
      }
      for (const char letter : options.campaigns) {
        if (letter < 'A' || letter > 'F') {
          std::fprintf(stderr,
                       "error: --campaigns expects letters A..F, got '%c'\n",
                       letter);
          std::exit(2);
        }
      }
    } else if (arg == "--workers" && has_value) {
      unsigned workers = 0;
      if (!parse_jobs(argv[i + 1], workers)) {
        std::fprintf(stderr,
                     "error: --workers expects an integer in [1, 1024], "
                     "got '%s'\n", argv[i + 1]);
        std::exit(2);
      }
      ++i;
      options.workers = workers;
    } else if (arg == "--seed" && has_value) {
      options.seed = require_u64("--seed", argv[++i], 0, UINT64_MAX);
    } else if (arg == "--scale" && has_value) {
      options.repeats = static_cast<int>(
          require_u64("--scale", argv[++i], 1, 1'000'000));
    } else if (arg == "--id" && has_value) {
      options.worker_id = static_cast<unsigned>(
          require_u64("--id", argv[++i], 0, 1023));
    } else if (arg == "--max-shards" && has_value) {
      options.max_shards =
          require_u64("--max-shards", argv[++i], 1, 1'000'000);
    } else if (arg == "--json" && has_value) {
      options.json_path = argv[++i];
    } else if (arg == "--fresh") {
      options.fresh = true;
    } else if (arg == "--verify-inprocess") {
      options.verify_inprocess = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help") {
      usage(0);
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      usage(2);
    }
  }
  return options;
}

inject::Campaign campaign_for_letter(char letter) {
  switch (letter) {
    case 'A': return inject::Campaign::RandomNonBranch;
    case 'B': return inject::Campaign::RandomBranch;
    case 'C': return inject::Campaign::IncorrectBranch;
    case 'D': return inject::Campaign::RegisterFile;
    case 'E': return inject::Campaign::KernelData;
    default:  return inject::Campaign::SyscallErrno;  // 'F'; parse_cli
                                                      // rejects the rest
  }
}

serve::ServiceConfig service_config(const CliOptions& cli) {
  serve::ServiceConfig config;
  for (const char letter : cli.campaigns) {
    inject::CampaignConfig c =
        check::smoke_config(campaign_for_letter(letter));
    c.seed = cli.seed;
    c.repeats = cli.repeats;
    config.campaigns.push_back(std::move(c));
  }
  config.dir = cli.dir;
  config.workers = cli.workers;
  config.fresh = cli.fresh;
  config.max_shards_per_worker = cli.max_shards;
  config.verbose = cli.verbose;
  return config;
}

void write_json(const CliOptions& cli, const serve::ServiceResult& result,
                int verified) {  // verified: -1 not run, 0 fail, 1 pass
  if (cli.json_path.empty()) return;
  std::FILE* out = std::fopen(cli.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
    return;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  std::fprintf(out,
               "{\n"
               "  \"tool\": \"kfi_campaignd\",\n"
               "  \"campaigns\": \"%s\",\n"
               "  \"ok\": %s,\n"
               "  \"result_digest\": \"%016llx\",\n"
               "  \"total_runs\": %llu,\n"
               "  \"workers\": %u,\n"
               "  \"shard_count\": %llu,\n"
               "  \"shards_executed\": %llu,\n"
               "  \"shards_resumed\": %llu,\n"
               "  \"steals\": %llu,\n"
               "  \"corrupt_discarded\": %llu,\n"
               "  \"attempts\": %d,\n"
               "  \"bundles_built\": %llu,\n"
               "  \"bundles_adopted\": %llu,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"scaling_valid\": %s%s%s\n"
               "}\n",
               cli.campaigns.c_str(),
               result.ok ? "true" : "false",
               static_cast<unsigned long long>(result.digest),
               static_cast<unsigned long long>(result.total_runs),
               cli.workers,
               static_cast<unsigned long long>(result.shard_count),
               static_cast<unsigned long long>(result.shards_executed),
               static_cast<unsigned long long>(result.shards_resumed),
               static_cast<unsigned long long>(result.steals),
               static_cast<unsigned long long>(result.corrupt_discarded),
               result.attempts,
               static_cast<unsigned long long>(result.bundles_built),
               static_cast<unsigned long long>(result.bundles_adopted),
               hardware, hardware > 1 ? "true" : "false",
               verified >= 0 ? ",\n  \"sharded_identical\": " : "",
               verified < 0 ? "" : (verified == 1 ? "true" : "false"));
  std::fclose(out);
}

int cmd_run(const CliOptions& cli) {
  const serve::ServiceConfig config = service_config(cli);
  serve::ServiceResult result =
      serve::run_service(config, cli.verify_inprocess);
  if (!result.ok) {
    std::fprintf(stderr, "kfi_campaignd: %s\n", result.error.c_str());
    write_json(cli, result, -1);
    return 1;
  }

  int verified = -1;
  if (cli.verify_inprocess) {
    // The reference path: one in-process Injector, threads=1, same
    // configs.  Every result (not just the digest) must match.
    inject::Injector injector(config.options);
    std::vector<inject::CampaignRun> reference;
    for (inject::CampaignConfig campaign : config.campaigns) {
      campaign.threads = 1;
      reference.push_back(inject::run_campaign(
          injector, profile::default_profile(), campaign));
    }
    verified = 1;
    const std::uint64_t reference_digest =
        analysis::results_digest(reference);
    if (reference_digest != result.digest) verified = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const check::RunComparison cmp =
          check::compare_runs(reference[i], result.runs[i]);
      if (!cmp.identical()) {
        std::fprintf(stderr,
                     "kfi_campaignd: campaign %zu diverged from in-process "
                     "run (%zu mismatches of %zu)\n",
                     i, cmp.mismatches.size(), cmp.compared);
        verified = 0;
      }
    }
    std::printf("sharded_identical: %s (in-process digest %016llx)\n",
                verified == 1 ? "true" : "false",
                static_cast<unsigned long long>(reference_digest));
  }

  std::printf(
      "campaign digest %016llx  (%llu runs, %llu shards: %llu executed, "
      "%llu resumed, %llu stolen, %llu corrupt discarded, %d attempt%s, "
      "%u workers)\n",
      static_cast<unsigned long long>(result.digest),
      static_cast<unsigned long long>(result.total_runs),
      static_cast<unsigned long long>(result.shard_count),
      static_cast<unsigned long long>(result.shards_executed),
      static_cast<unsigned long long>(result.shards_resumed),
      static_cast<unsigned long long>(result.steals),
      static_cast<unsigned long long>(result.corrupt_discarded),
      result.attempts, result.attempts == 1 ? "" : "s", cli.workers);
  std::printf("bundles: %llu built, %llu adopted from disk\n",
              static_cast<unsigned long long>(result.bundles_built),
              static_cast<unsigned long long>(result.bundles_adopted));
  write_json(cli, result, verified);
  return verified == 0 ? 1 : 0;
}

int cmd_prepare(const CliOptions& cli) {
  const serve::ServiceConfig config = service_config(cli);
  serve::ServiceResult result;
  const auto manifest = serve::prepare_campaign(config, &result);
  if (!manifest.has_value()) return 1;
  std::printf(
      "manifest %s: config %016llx, %llu targets, %zu shards, "
      "%zu workloads (%llu bundles built, %llu adopted)\n",
      cli.dir.c_str(),
      static_cast<unsigned long long>(manifest->config_hash),
      static_cast<unsigned long long>(manifest->total_targets()),
      manifest->shard_ranges.size(), manifest->workloads.size(),
      static_cast<unsigned long long>(result.bundles_built),
      static_cast<unsigned long long>(result.bundles_adopted));
  return 0;
}

int cmd_worker(const CliOptions& cli) {
  const serve::WorkerReport report =
      serve::run_worker(cli.dir, cli.worker_id, cli.workers, cli.max_shards,
                        cli.verbose);
  std::printf(
      "worker %u: %llu shards (%llu stolen), %llu runs, %llu bundles "
      "adopted\n",
      cli.worker_id,
      static_cast<unsigned long long>(report.shards_completed),
      static_cast<unsigned long long>(report.shards_stolen),
      static_cast<unsigned long long>(report.runs),
      static_cast<unsigned long long>(report.bundle_adoptions));
  return report.ok ? 0 : 1;
}

int cmd_aggregate(const CliOptions& cli) {
  serve::ServiceResult result;
  if (!serve::aggregate_campaign(cli.dir, false, result)) {
    std::fprintf(stderr, "kfi_campaignd: %s\n", result.error.c_str());
    write_json(cli, result, -1);
    return 1;
  }
  result.ok = true;
  std::printf("campaign digest %016llx  (%llu runs over %llu shards)\n",
              static_cast<unsigned long long>(result.digest),
              static_cast<unsigned long long>(result.total_runs),
              static_cast<unsigned long long>(result.shard_count));
  write_json(cli, result, -1);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);
  if (cli.command == "run") return cmd_run(cli);
  if (cli.command == "prepare") return cmd_prepare(cli);
  if (cli.command == "worker") return cmd_worker(cli);
  if (cli.command == "aggregate") return cmd_aggregate(cli);
  std::fprintf(stderr, "error: unknown command '%s'\n", cli.command.c_str());
  usage(2);
}
