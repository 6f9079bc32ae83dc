// kfibench: the campaign benchmark's worker binary.  kfibench/run.py
// starts one fresh process per campaign, so every process pays the
// full set-up (kernel build, profile, targets, golden runs or the
// service's bundles) exactly as a user's campaign does.
//
//   kfibench campaign --workload W --seed N --dir D --path inproc|serve
//                     --t0 NS [--trace] [--setup-only]
//       Runs the workload's campaigns once with ExecEngine::Chained and
//       prints one JSON line of measurements.  Results are saved under
//       D for `verify`; --trace also writes D/spans.jsonl.  --setup-only
//       stops after set-up and prints only setup_s.  --t0 is the
//       monotonic-clock instant the parent started this process.
//   kfibench verify --workload W --procs D1,D2,... --seeds S1,S2,...
//                   --spans F [--refs R]
//       Compares every record saved by the campaign processes (run at
//       the given seeds) with its reference, writes its io_load and
//       verify spans to F and prints one JSON line; exits 1 when any
//       record fails.
//   kfibench refs --workload W --out R
//       Writes a smoke workload's seed-2003 references under
//       ExecEngine::Step (the semantic oracle) after checking their
//       pinned fold.
//   kfibench mutate --in F --out F --index I
//       Copies a result file with one record changed (self-test input).
//
// Exit codes: 0 success, 1 failed check, 2 usage.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/io.h"
#include "analysis/store.h"
#include "check/expectations.h"
#include "check/replay.h"
#include "inject/campaign.h"
#include "kernel/build.h"
#include "profile/profile.h"
#include "serve/service.h"
#include "spans.h"
#include "support/strings.h"

#ifndef KFIBENCH_BUILD_TYPE
#define KFIBENCH_BUILD_TYPE "unknown"
#endif

namespace kfibench {
namespace {

using namespace kfi;
using inject::Campaign;

constexpr std::uint64_t kReferenceSeed = 2003;
constexpr unsigned kServiceWorkers = 2;

struct Workload {
  std::string_view name;
  std::vector<Campaign> campaigns;
  // Paper scale: each campaign's default function list (the committed
  // kfi-results/ campaigns), run through serve::run_service with forked
  // workers.  Otherwise the smoke lists, in-process at threads = 1.
  bool paper_sharded = false;
  // Fold of the seed-2003 references: the pinned smoke folds, and for
  // paper scale the fold of the committed kfi-results/ campaigns.
  std::uint64_t pinned_fold = 0;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"smoke_abc",
       {Campaign::RandomNonBranch, Campaign::RandomBranch,
        Campaign::IncorrectBranch},
       false, 0x54fdd95d1638c920ULL},
      {"smoke_def",
       {Campaign::RegisterFile, Campaign::KernelData, Campaign::SyscallErrno},
       false, 0x9888393f152a05c3ULL},
      {"paper_bc_sharded",
       {Campaign::RandomBranch, Campaign::IncorrectBranch},
       true, 0xa20bb1b8dfc09b48ULL},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<inject::CampaignConfig> campaign_configs(const Workload& w,
                                                     std::uint64_t seed) {
  std::vector<inject::CampaignConfig> configs;
  for (const Campaign c : w.campaigns) {
    inject::CampaignConfig config;
    if (w.paper_sharded) {
      config.campaign = c;
      config.repeats = 1;
    } else {
      config = check::smoke_config(c);
    }
    config.seed = seed;
    config.threads = 1;
    configs.push_back(std::move(config));
  }
  return configs;
}

inject::InjectorOptions options_for(machine::ExecEngine engine) {
  inject::InjectorOptions options;
  options.exec_engine = engine;
  return options;
}

std::string result_path(const std::string& dir, Campaign c,
                        std::uint64_t seed) {
  return analysis::campaign_cache_path(dir, c, 1, seed, kernel::built_kernel());
}

std::string hex64(std::uint64_t v) {
  return format("%016llx", static_cast<unsigned long long>(v));
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

double cpu_seconds(const rusage& r) {
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) * 1e-6;
}

// User + system CPU of this process and every child it has reaped.
double process_tree_cpu() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return cpu_seconds(self) + cpu_seconds(children);
}

// The larger of this process's peak RSS and its largest reaped child's.
double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double dir_mib(const std::string& dir) {
  std::error_code ec;
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// Metric-name key of an outcome (kfibench/run.py reports per outcome).
const char* outcome_key(inject::Outcome outcome) {
  switch (outcome) {
    case inject::Outcome::NotActivated: return "not_activated";
    case inject::Outcome::NotManifested: return "not_manifested";
    case inject::Outcome::FailSilenceViolation: return "fail_silence";
    case inject::Outcome::DumpedCrash: return "dumped_crash";
    case inject::Outcome::HangUnknown: return "hang";
  }
  return "unknown";
}

// ---- argument parsing ----

struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  bool trace = false;       // --trace
  bool setup_only = false;  // --setup-only

  std::string get(const std::string& key, std::string fallback = "") const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      args.trace = true;
    } else if (arg == "--setup-only") {
      args.setup_only = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      args.values[arg.substr(2)] = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  return args;
}

std::optional<std::uint64_t> parse_number(const std::string& text) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value)) return std::nullopt;
  return value;
}

// ---- campaign ----

// Counter readings taken from the caller's Injector at each progress
// tick of a threads = 1 campaign; each tick closes one injection span.
struct TickRecorder {
  Tracer* tracer = nullptr;
  inject::Injector* injector = nullptr;
  int campaign_span = -1;
  int campaign = 0;
  const std::vector<std::size_t>* order = nullptr;
  std::int64_t last_ns = 0;
  std::uint64_t last_pre = 0;
  std::uint64_t last_post = 0;

  void tick(std::size_t done) {
    const std::int64_t now = now_ns();
    const std::uint64_t pre = injector->pre_trigger_cycles();
    const std::uint64_t post = injector->post_trigger_cycles();
    const int id = tracer->open("injection", campaign_span, campaign, last_ns);
    tracer->close(id, now);
    Span& span = tracer->at(id);
    span.spec_index = static_cast<std::int64_t>((*order)[done - 1]);
    span.pre_cycles = pre - last_pre;
    span.post_cycles = post - last_post;
    last_ns = now;
    last_pre = pre;
    last_post = post;
  }
};

void print_stats_json(std::FILE* out, const inject::CampaignStats& s) {
  const machine::PerfStats& p = s.perf;
  std::fprintf(
      out,
      "\"runs\": %llu, \"checkpoint_hits\": %llu, "
      "\"checkpoint_misses\": %llu, \"reconverged\": %llu, "
      "\"pre_cycles\": %llu, \"post_cycles\": %llu, \"restores\": %llu, "
      "\"bytes_restored\": %llu, \"block_builds\": %llu, "
      "\"block_hits\": %llu, \"block_fallbacks\": %llu, "
      "\"block_invalidations\": %llu, \"chain_follows\": %llu, "
      "\"trace_len\": %llu",
      static_cast<unsigned long long>(s.runs),
      static_cast<unsigned long long>(s.checkpoint_hits),
      static_cast<unsigned long long>(s.checkpoint_misses),
      static_cast<unsigned long long>(s.reconverged),
      static_cast<unsigned long long>(s.pre_trigger_cycles),
      static_cast<unsigned long long>(s.post_trigger_cycles),
      static_cast<unsigned long long>(p.restores),
      static_cast<unsigned long long>(p.bytes_restored),
      static_cast<unsigned long long>(p.block_builds),
      static_cast<unsigned long long>(p.block_hits),
      static_cast<unsigned long long>(p.block_fallbacks),
      static_cast<unsigned long long>(p.block_invalidations),
      static_cast<unsigned long long>(p.chain_follows),
      static_cast<unsigned long long>(p.trace_len));
}

// The --setup-only result: set-up time from process start to the point
// the first injection would begin.
int print_setup(std::int64_t origin, std::int64_t end) {
  std::printf("{\"setup_s\": %.9f}\n", seconds_between(origin, end));
  return 0;
}

int run_campaign_command(const Args& args) {
  const Workload* w = find_workload(args.get("workload"));
  const std::optional<std::uint64_t> seed = parse_number(args.get("seed"));
  const std::string dir = args.get("dir");
  const std::string path_name = args.get("path");
  const std::optional<std::uint64_t> t0 = parse_number(args.get("t0"));
  if (w == nullptr || !seed || dir.empty() || !t0 ||
      (path_name != "inproc" && path_name != "serve")) {
    std::fprintf(stderr, "kfibench campaign: bad arguments\n");
    return 2;
  }
  const bool serve_path = path_name == "serve";
  const auto origin = static_cast<std::int64_t>(*t0);
  std::filesystem::create_directories(dir);

  Tracer tracer(args.trace);
  const int process = tracer.open("process", -1, -1, origin);
  const int setup = tracer.open("setup", process, -1, origin);

  int span = tracer.open("kernel", setup);
  kernel::built_kernel();
  tracer.close(span);
  span = tracer.open("profile", setup);
  const profile::ProfileResult& prof = profile::default_profile();
  tracer.close(span);

  std::vector<inject::CampaignConfig> configs =
      campaign_configs(*w, *seed);
  std::vector<std::vector<inject::InjectionSpec>> targets;
  std::uint64_t target_count = 0;
  span = tracer.open("targets", setup);
  for (const inject::CampaignConfig& config : configs) {
    targets.push_back(inject::campaign_targets(prof, config, nullptr));
    target_count += targets.back().size();
  }
  tracer.close(span);

  const inject::InjectorOptions options =
      options_for(machine::ExecEngine::Chained);
  std::vector<inject::CampaignRun> runs;
  inject::CampaignStats stats;
  std::uint64_t golden_builds = 0;
  serve::ServiceResult service;
  serve::ServiceConfig service_config;
  double bundle_mib = 0.0;
  std::int64_t timed_begin = 0;
  std::int64_t timed_end = 0;
  double cpu_begin = 0.0;
  double cpu_end = 0.0;

  if (!serve_path) {
    inject::Injector injector(options);
    std::vector<std::vector<std::size_t>> orders;
    span = tracer.open("golden", setup);
    for (const auto& campaign_targets : targets) {
      orders.push_back(inject::campaign_order(injector, campaign_targets));
    }
    tracer.close(span);
    golden_builds = injector.cache()->golden_builds();
    if (args.setup_only) return print_setup(origin, now_ns());

    cpu_begin = process_tree_cpu();
    timed_begin = now_ns();
    tracer.close(setup, timed_begin);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const int campaign_span =
          tracer.open("campaign", process, static_cast<int>(c));
      TickRecorder ticks{&tracer, &injector, campaign_span,
                         static_cast<int>(c), &orders[c], now_ns(),
                         injector.pre_trigger_cycles(),
                         injector.post_trigger_cycles()};
      inject::CampaignConfig config = configs[c];
      if (tracer.enabled()) {
        config.progress = [&ticks](std::size_t done, std::size_t) {
          ticks.tick(done);
        };
      }
      runs.push_back(inject::run_campaign(injector, prof, config));
      tracer.close(campaign_span);
      stats += runs.back().stats;
    }
    timed_end = now_ns();
    cpu_end = process_tree_cpu();
  } else {
    service_config.campaigns = configs;
    service_config.options = options;
    service_config.dir = dir + "/campaign";
    service_config.bundle_dir = dir + "/bundles";
    service_config.workers = kServiceWorkers;
    service_config.fresh = true;
    span = tracer.open("prepare", setup);
    if (!serve::prepare_campaign(service_config, &service).has_value()) {
      std::fprintf(stderr, "kfibench: prepare_campaign failed\n");
      return 1;
    }
    tracer.close(span);
    bundle_mib = dir_mib(service_config.bundle_dir);
    service_config.fresh = false;  // run the manifest prepared above
    if (args.setup_only) return print_setup(origin, now_ns());

    cpu_begin = process_tree_cpu();
    timed_begin = now_ns();
    tracer.close(setup, timed_begin);
    span = tracer.open("run_service", process);
    service = serve::run_service(service_config, /*materialize=*/true);
    tracer.close(span);
    timed_end = now_ns();
    cpu_end = process_tree_cpu();
    if (!service.ok) {
      std::fprintf(stderr, "kfibench: run_service failed: %s\n",
                   service.error.c_str());
      return 1;
    }
    runs = std::move(service.runs);
  }

  span = tracer.open("digest", process);
  const std::uint64_t digest = analysis::results_digest(runs);
  tracer.close(span);

  double shard_mib = 0.0;
  if (serve_path) {
    // A second, standalone aggregation pass over the finished store.
    span = tracer.open("aggregate", process);
    serve::ServiceResult again;
    const bool ok = serve::aggregate_campaign(service_config.dir, false, again);
    tracer.close(span);
    if (!ok || again.digest != digest) {
      std::fprintf(stderr, "kfibench: standalone aggregation disagrees\n");
      return 1;
    }
    shard_mib = dir_mib(service_config.dir + "/shards");
  }

  std::uint64_t injections = 0;
  for (std::size_t c = 0; c < runs.size(); ++c) {
    injections += runs[c].results.size();
    if (!analysis::save_campaign(runs[c],
                                 result_path(dir, w->campaigns[c], *seed))) {
      std::fprintf(stderr, "kfibench: cannot save results under %s\n",
                   dir.c_str());
      return 1;
    }
  }

  if (tracer.enabled()) {
    // Each injection span learns its outcome from the finished record.
    for (Span& s : tracer.spans()) {
      if (s.spec_index < 0) continue;
      const auto& results = runs[static_cast<std::size_t>(s.campaign)].results;
      s.outcome =
          outcome_key(results[static_cast<std::size_t>(s.spec_index)].outcome);
    }
  }
  tracer.close(process);
  if (tracer.enabled() && !tracer.write(dir + "/spans.jsonl", origin)) {
    std::fprintf(stderr, "kfibench: cannot write spans under %s\n",
                 dir.c_str());
    return 1;
  }

  std::printf(
      "{\"workload\": \"%s\", \"path\": \"%s\", \"seed\": %llu, "
      "\"engine\": \"chained\", \"build_type\": \"%s\", "
      "\"traced\": %s, \"digest\": \"%s\", \"injections\": %llu, "
      "\"targets\": %llu, \"setup_s\": %.9f, \"timed_s\": %.9f, "
      "\"cpu_s\": %.6f, \"peak_rss_mib\": %.3f, \"golden_builds\": %llu, "
      "\"bundle_mib\": %.6f, \"shard_mib\": %.6f, "
      "\"shards\": %llu, \"steals\": %llu, \"workers_failed\": %llu, ",
      std::string(w->name).c_str(), path_name.c_str(),
      static_cast<unsigned long long>(*seed), KFIBENCH_BUILD_TYPE,
      tracer.enabled() ? "true" : "false", hex64(digest).c_str(),
      static_cast<unsigned long long>(injections),
      static_cast<unsigned long long>(target_count),
      seconds_between(origin, timed_begin),
      seconds_between(timed_begin, timed_end), cpu_end - cpu_begin,
      peak_rss_mib(), static_cast<unsigned long long>(golden_builds),
      bundle_mib, shard_mib,
      static_cast<unsigned long long>(service.shard_count),
      static_cast<unsigned long long>(service.steals),
      static_cast<unsigned long long>(service.workers_failed +
                                      service.workers_signaled));
  print_stats_json(stdout, stats);
  std::printf("}\n");
  return 0;
}

// ---- verify ----

// Fold of one record.  check::compare_runs diffs every persisted field
// but not the fault-model extras (data address, syscall cascade), which
// the fold covers.
std::uint64_t record_fold(const inject::InjectionResult& r) {
  analysis::ResultDigest digest;
  digest.add(r);
  return digest.value();
}

std::optional<std::vector<inject::CampaignRun>> load_runs(
    const Workload& w, const std::string& dir, std::uint64_t seed) {
  std::vector<inject::CampaignRun> runs;
  for (const Campaign c : w.campaigns) {
    std::optional<inject::CampaignRun> run =
        analysis::load_campaign(result_path(dir, c, seed));
    if (!run.has_value()) return std::nullopt;
    runs.push_back(std::move(*run));
  }
  return runs;
}

int run_verify_command(const Args& args) {
  const std::int64_t origin = now_ns();
  const Workload* w = find_workload(args.get("workload"));
  std::vector<std::string> procs = split(args.get("procs"), ',');
  std::erase(procs, std::string());
  std::vector<std::uint64_t> seeds;
  for (const std::string& text : split(args.get("seeds"), ',')) {
    const std::optional<std::uint64_t> seed = parse_number(text);
    if (!seed) break;
    seeds.push_back(*seed);
  }
  const std::string refs = args.get("refs");
  const std::string spans = args.get("spans");
  if (w == nullptr || procs.empty() || seeds.size() != procs.size() ||
      spans.empty()) {
    std::fprintf(stderr, "kfibench verify: bad arguments\n");
    return 2;
  }
  Tracer tracer(true);
  const int process = tracer.open("process", -1, -1, origin);
  const profile::ProfileResult& prof = profile::default_profile();

  // Every .kfi file verification reads: the stored seed-2003 references
  // and each process's records.
  const bool stored = !refs.empty() &&
                      std::find(seeds.begin(), seeds.end(), kReferenceSeed) !=
                          seeds.end();
  int span = tracer.open("io_load", process);
  std::optional<std::vector<inject::CampaignRun>> stored_runs;
  if (stored) stored_runs = load_runs(*w, refs, kReferenceSeed);
  std::vector<std::optional<std::vector<inject::CampaignRun>>> got;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    got.push_back(load_runs(*w, procs[p], seeds[p]));
  }
  tracer.close(span);

  span = tracer.open("verify", process);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t replayed = 0;
  const bool pinned_ok =
      !stored || (stored_runs.has_value() &&
                  analysis::results_digest(*stored_runs) == w->pinned_fold);
  std::vector<std::string> folds;
  std::unique_ptr<inject::Injector> stepper;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    std::vector<std::vector<inject::InjectionSpec>> targets;
    std::uint64_t expected = 0;
    for (const inject::CampaignConfig& config :
         campaign_configs(*w, seeds[p])) {
      targets.push_back(inject::campaign_targets(prof, config, nullptr));
      expected += targets.back().size();
    }
    attempted += expected;

    // The reference: the stored records at seed 2003, else an earlier
    // process's records at the same seed.  Without one, a fixed sample
    // of this process's own records is replayed under ExecEngine::Step.
    const std::vector<inject::CampaignRun>* reference = nullptr;
    if (seeds[p] == kReferenceSeed && stored_runs.has_value()) {
      reference = &*stored_runs;
    }
    for (std::size_t q = 0; reference == nullptr && q < p; ++q) {
      if (seeds[q] == seeds[p] && got[q].has_value()) reference = &*got[q];
    }
    if (!got[p].has_value() ||
        (seeds[p] == kReferenceSeed && stored && !stored_runs.has_value())) {
      std::fprintf(stderr, "kfibench verify: %s: records missing\n",
                   procs[p].c_str());
      failed += expected;
      folds.push_back("none");
      continue;
    }
    folds.push_back(hex64(analysis::results_digest(*got[p])));

    for (std::size_t c = 0; c < targets.size(); ++c) {
      const inject::CampaignRun& run = (*got[p])[c];
      check::RunComparison comparison;
      if (reference != nullptr) {
        comparison = check::compare_runs((*reference)[c], run);
      }
      // Records that cannot be aligned with the target list all fail.
      const bool aligned = !comparison.size_mismatch &&
                           run.results.size() == targets[c].size();
      std::vector<bool> bad(targets[c].size(), !aligned);
      if (aligned) {
        for (std::size_t i = 0; i < bad.size(); ++i) {
          bad[i] = !check::diff_specs(targets[c][i], run.results[i].spec)
                        .empty();
        }
        if (reference != nullptr) {
          const inject::CampaignRun& want = (*reference)[c];
          for (const auto& mismatch : comparison.mismatches) {
            bad[mismatch.first] = true;
          }
          for (std::size_t i = 0; i < bad.size(); ++i) {
            bad[i] = bad[i] ||
                     record_fold(run.results[i]) != record_fold(want.results[i]);
          }
        } else {
          if (stepper == nullptr) {
            stepper = std::make_unique<inject::Injector>(
                options_for(machine::ExecEngine::Step));
          }
          for (const std::size_t i : check::sample_indices(run, 1)) {
            ++replayed;
            if (!check::replay_one(*stepper, run, i).identical()) {
              bad[i] = true;
            }
          }
        }
      }
      for (std::size_t i = 0; i < bad.size(); ++i) {
        if (!bad[i]) continue;
        if (++failed <= 5) {
          std::fprintf(stderr,
                       "kfibench verify: %s campaign %s record %zu differs "
                       "from its reference\n",
                       procs[p].c_str(),
                       std::string(inject::campaign_name(run.campaign)).c_str(),
                       i);
        }
      }
    }
  }
  tracer.close(span);
  tracer.close(process);
  if (!tracer.write(spans, origin)) {
    std::fprintf(stderr, "kfibench verify: cannot write spans\n");
    return 1;
  }

  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"replayed\": %llu, "
              "\"pinned_ok\": %s, \"folds\": [",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(replayed),
              pinned_ok ? "true" : "false");
  for (std::size_t i = 0; i < folds.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", folds[i].c_str());
  }
  std::printf("]}\n");
  return failed == 0 && pinned_ok ? 0 : 1;
}

// ---- refs / mutate ----

int run_refs_command(const Args& args) {
  const Workload* w = find_workload(args.get("workload"));
  const std::string out = args.get("out");
  // Paper-scale references are the committed kfi-results/ campaigns.
  if (w == nullptr || out.empty() || w->paper_sharded) {
    std::fprintf(stderr, "kfibench refs: bad arguments\n");
    return 2;
  }
  inject::Injector stepper(options_for(machine::ExecEngine::Step));
  std::vector<inject::CampaignRun> runs;
  for (const inject::CampaignConfig& config :
       campaign_configs(*w, kReferenceSeed)) {
    runs.push_back(
        inject::run_campaign(stepper, profile::default_profile(), config));
  }
  const std::uint64_t fold = analysis::results_digest(runs);
  if (fold != w->pinned_fold) {
    std::fprintf(stderr, "kfibench refs: fold %s != pinned %s\n",
                 hex64(fold).c_str(), hex64(w->pinned_fold).c_str());
    return 1;
  }
  std::filesystem::create_directories(out);
  for (std::size_t c = 0; c < runs.size(); ++c) {
    const std::string path = result_path(out, w->campaigns[c], kReferenceSeed);
    if (!analysis::save_campaign(runs[c], path)) {
      std::fprintf(stderr, "kfibench refs: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("%s\n", path.c_str());
  }
  return 0;
}

int run_mutate_command(const Args& args) {
  const std::optional<std::uint64_t> index = parse_number(args.get("index"));
  std::optional<inject::CampaignRun> run =
      analysis::load_campaign(args.get("in"));
  if (!index || !run.has_value() || *index >= run->results.size()) {
    std::fprintf(stderr, "kfibench mutate: bad arguments\n");
    return 2;
  }
  run->results[*index].activation_cycle += 1;
  return analysis::save_campaign(*run, args.get("out")) ? 0 : 1;
}

}  // namespace
}  // namespace kfibench

int main(int argc, char** argv) {
  const std::optional<kfibench::Args> args = kfibench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr, "usage: kfibench campaign|verify|refs|mutate ...\n");
    return 2;
  }
  if (args->command == "campaign") return kfibench::run_campaign_command(*args);
  if (args->command == "verify") return kfibench::run_verify_command(*args);
  if (args->command == "refs") return kfibench::run_refs_command(*args);
  if (args->command == "mutate") return kfibench::run_mutate_command(*args);
  std::fprintf(stderr, "kfibench: unknown command %s\n",
               args->command.c_str());
  return 2;
}
