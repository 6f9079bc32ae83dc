#include "inject/campaign.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>

#include "kernel/koffsets.h"
#include "trace/trace.h"

namespace kfi::inject {

std::vector<std::string> default_functions(Campaign campaign,
                                           const profile::ProfileResult& prof,
                                           double coverage) {
  if (campaign == Campaign::SyscallErrno) {
    // Campaign F's "functions" are workload names: the fault sits at
    // the one syscall-exit site, so the population axis is which
    // workload's syscall stream gets corrupted.
    std::vector<std::string> names;
    names.reserve(prof.workload_cycles.size());
    for (const auto& [workload, cycles] : prof.workload_cycles) {
      names.push_back(workload);
    }
    return names;
  }
  if (campaign == Campaign::RandomNonBranch ||
      campaign == Campaign::RegisterFile ||
      campaign == Campaign::KernelData) {
    // The paper targeted the core-32 plus enough extra hot functions to
    // reach statistical mass (51 functions in campaign A); mirror that
    // by extending the core set to at least the 40 hottest functions.
    std::vector<std::string> names = prof.core_functions(coverage);
    std::unordered_set<std::string> present(names.begin(), names.end());
    for (const profile::FunctionSamples& fs : prof.functions) {
      if (names.size() >= 40) break;
      if (present.insert(fs.function).second) names.push_back(fs.function);
    }
    return names;
  }
  // Branch campaigns: all profiled functions, hottest first.
  std::vector<std::string> names;
  names.reserve(prof.functions.size());
  for (const profile::FunctionSamples& fs : prof.functions) {
    names.push_back(fs.function);
  }
  return names;
}

std::vector<InjectionSpec> campaign_targets(const profile::ProfileResult& prof,
                                            const CampaignConfig& config,
                                            std::size_t* functions_targeted) {
  std::vector<std::string> functions = config.functions;
  if (functions.empty()) {
    functions = default_functions(config.campaign, prof,
                                  config.profile_coverage);
  }

  const kernel::KernelImage& image = config.kernel_image != nullptr
                                         ? *config.kernel_image
                                         : kernel::built_kernel();
  Rng rng(config.seed ^ (static_cast<std::uint64_t>(config.campaign) << 32));

  if (config.campaign == Campaign::SyscallErrno) {
    // Campaign F: `functions` names workloads (see default_functions);
    // every target sits at the one syscall-exit site and differs in
    // which successful golden exit it corrupts (data_index, resolved
    // against the golden run's exit list at injection time — this
    // generator must stay pure over profile/config/seed so service
    // workers re-derive identical target lists) and which errno lands.
    static constexpr std::uint32_t kErrnos[] = {
        kernel::KE_ENOENT, kernel::KE_EBADF,  kernel::KE_EAGAIN,
        kernel::KE_ENOMEM, kernel::KE_EEXIST, kernel::KE_EINVAL,
        kernel::KE_EMFILE, kernel::KE_ENOSPC, kernel::KE_ESPIPE,
        kernel::KE_EPIPE,  kernel::KE_ENOSYS};
    const std::uint32_t site = syscall_return_site(image);
    std::vector<InjectionSpec> targets;
    std::size_t targeted = 0;
    for (const std::string& workload : functions) {
      if (prof.workload_cycles.count(workload) == 0) continue;
      ++targeted;
      const int samples = config.repeats * kErrnoSamplesPerRepeat;
      for (int rep = 0; rep < samples; ++rep) {
        InjectionSpec spec;
        spec.campaign = config.campaign;
        spec.model = FaultModel::SyscallErrno;
        spec.function = "system_call";
        spec.subsystem = kernel::Subsystem::Arch;
        spec.instr_addr = site;
        spec.workload = workload;
        spec.data_index = rng.next_u32();
        spec.errno_value =
            kErrnos[rng.below(sizeof kErrnos / sizeof kErrnos[0])];
        targets.push_back(std::move(spec));
      }
    }
    if (functions_targeted != nullptr) *functions_targeted = targeted;
    return targets;
  }

  // Two-phase append: expand every function first, then reserve the
  // exact total once, so the flat list never reallocates mid-fill.
  std::size_t targeted = 0;
  std::size_t total = 0;
  std::vector<std::vector<InjectionSpec>> per_function;
  per_function.reserve(functions.size());
  for (const std::string& name : functions) {
    const kernel::KernelFunction* fn = image.function(name);
    if (fn == nullptr) continue;
    std::string workload = prof.best_workload(name);
    if (workload.empty()) workload = "syscall";
    std::vector<InjectionSpec> fn_targets =
        make_targets(image, *fn, config.campaign, rng, config.repeats);
    if (fn_targets.empty()) continue;
    ++targeted;
    for (InjectionSpec& spec : fn_targets) spec.workload = workload;
    total += fn_targets.size();
    per_function.push_back(std::move(fn_targets));
  }

  std::vector<InjectionSpec> targets;
  targets.reserve(total);
  for (std::vector<InjectionSpec>& fn_targets : per_function) {
    for (InjectionSpec& spec : fn_targets) targets.push_back(std::move(spec));
  }
  if (functions_targeted != nullptr) *functions_targeted = targeted;
  return targets;
}

std::vector<std::size_t> campaign_order(
    Injector& injector, const std::vector<InjectionSpec>& targets) {
  // Group runs by workload, then by the target's first-execution cycle
  // in the golden run, so consecutive runs resume from the same (or an
  // adjacent) checkpoint-ladder rung and re-dirty the same small page
  // set.  Results are always written to spec-order slots, so execution
  // order is a pure locality decision, never a result decision.
  std::vector<std::size_t> order(targets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::uint64_t> touch_cycle(targets.size(), ~0ULL);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto& touch = injector.first_touch(targets[i].workload);
    const auto it = touch.find(targets[i].instr_addr);
    if (it != touch.end()) touch_cycle[i] = it->second.first;
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              if (targets[a].workload != targets[b].workload) {
                return targets[a].workload < targets[b].workload;
              }
              if (touch_cycle[a] != touch_cycle[b]) {
                return touch_cycle[a] < touch_cycle[b];
              }
              return a < b;
            });
  return order;
}

std::vector<ShardRange> shard_ranges(std::uint64_t total, unsigned workers) {
  const std::uint64_t n =
      std::min(kShardsPerWorker * std::max(workers, 1u), total);
  std::vector<ShardRange> ranges;
  ranges.reserve(n);
  for (std::uint64_t s = 0; s < n; ++s) {
    ranges.emplace_back(total * s / n, total * (s + 1) / n);
  }
  return ranges;
}

std::uint64_t drain_shards(
    std::uint64_t shards, unsigned worker, unsigned workers,
    const std::function<bool(std::uint64_t)>& claim,
    const std::function<void(std::uint64_t, bool)>& run) {
  workers = std::max(workers, 1u);
  std::uint64_t steals = 0;
  // Own shards first, so a worker stays on its own run of neighbouring
  // rungs; then whatever lagging or dead peers have not claimed yet.
  for (const bool own : {true, false}) {
    for (std::uint64_t s = 0; s < shards; ++s) {
      if ((s % workers == worker) != own || !claim(s)) continue;
      run(s, !own);
      if (!own) ++steals;
    }
  }
  return steals;
}

CampaignRun run_campaign(Injector& injector,
                         const profile::ProfileResult& prof,
                         const CampaignConfig& config) {
  CampaignRun run;
  run.campaign = config.campaign;

  const std::vector<InjectionSpec> targets =
      campaign_targets(prof, config, &run.functions_targeted);

  run.results.resize(targets.size());

  unsigned threads = config.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(targets.size(), 1)));

  // Build every workload's golden artifacts on the campaign's threads;
  // campaign_order below then only looks them up.
  std::set<std::string> workloads;
  for (const InjectionSpec& spec : targets) workloads.insert(spec.workload);
  injector.cache()->build_workloads({workloads.begin(), workloads.end()},
                                    threads);
  const std::vector<std::size_t> order = campaign_order(injector, targets);
  const std::vector<ShardRange> shards = shard_ranges(order.size(), threads);

  // The caller's injector may carry counters from earlier campaigns;
  // only the delta accrued here belongs to this run's stats.
  const CampaignStats caller_before = injector.stats();
  run.stats.threads_used = threads;
  run.stats.shards = shards.size();

  // Which thread runs which shard moves only wall-clock time, never
  // results: every run starts from a restore of the shared golden state
  // and writes its own spec-order slot.
  std::vector<std::atomic<bool>> claimed(shards.size());
  std::size_t done = 0;
  std::mutex mutex;  // guards run.stats, done and progress
  auto worker = [&](unsigned w) {
    // Worker 0 reuses the caller's injector (and its warmed machine);
    // the others borrow the same GoldenCache, so no golden run, ladder
    // capture, or boot is ever repeated — a private worker costs one
    // machine, a full-image copy on its first adopt_boot and a few
    // pages per workload switch after that.
    std::unique_ptr<Injector> own;
    Injector* inj = &injector;
    if (w != 0) {
      own = std::make_unique<Injector>(injector.cache());
      inj = own.get();
    }
    // Host-side events carry cycle 0: the drain has no guest clock.
    trace::TraceBuffer* const sink = inj->trace();
    const std::uint64_t steals = drain_shards(
        shards.size(), w, threads,
        [&](std::uint64_t s) { return !claimed[s].exchange(true); },
        [&](std::uint64_t s, bool stolen) {
          const auto [begin, end] = shards[s];
          if (sink != nullptr && stolen) {
            sink->record(trace::EventKind::ChunkSteal, 0, w,
                         static_cast<std::uint32_t>(s % threads),
                         static_cast<std::uint32_t>(begin),
                         static_cast<std::uint32_t>(end));
          } else if (sink != nullptr) {
            sink->record(trace::EventKind::ChunkRun, 0, w,
                         static_cast<std::uint32_t>(begin),
                         static_cast<std::uint32_t>(end));
          }
          for (std::uint64_t pos = begin; pos < end; ++pos) {
            const std::size_t i = order[pos];
            run.results[i] = inj->run_one(targets[i]);
            if (config.progress) {
              const std::lock_guard<std::mutex> lock(mutex);
              config.progress(++done, targets.size());
            }
          }
        });
    const std::lock_guard<std::mutex> lock(mutex);
    run.stats.steals += steals;
    // Fold a private worker's counters in before its injector dies.
    if (own != nullptr) run.stats += own->stats();
  };

  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : pool) t.join();
  run.stats += injector.stats();
  run.stats -= caller_before;
  return run;
}

}  // namespace kfi::inject
