// Process-sharded campaign service.
//
// A campaign sequence (e.g. the smoke A/B/C triple) is split into a
// manifest of contiguous shards over the locality-sorted execution
// order, golden bundles are serialized once (serve/bundle), and N
// worker processes — forked by run_service() or spawned independently
// via `kfi_campaignd worker` — drain the shard list, each streaming
// its finished shards into the sealed artifact store (analysis/store).  Aggregation k-way merges the shard artifacts back
// into spec order and folds the campaign digest, which is required to
// be bit-identical to the in-process run_campaign() path at every
// worker count.
//
// Crash/kill recovery is structural, not transactional: an artifact
// exists iff its shard completed (atomic rename), a claim file exists
// iff some worker took the shard, and a claim without an artifact is
// stale — cleared by the controller between waves so the shard is
// re-run.  A killed campaign therefore resumes from exactly its
// completed shards; a corrupted artifact fails its checksum trailer
// when opened, is discarded, and is re-run the same way.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/store.h"
#include "inject/campaign.h"

namespace kfi::serve {

struct ServiceConfig {
  // Campaign slots in digest order (the global spec index space is
  // their concatenation).  `threads` and `progress` are ignored —
  // parallelism is processes here.
  std::vector<inject::CampaignConfig> campaigns;
  inject::InjectorOptions options;

  // Campaign directory: manifest.kfim, shards/, claims/.  Bundles
  // default to "<dir>/bundles" so repeated campaigns against the same
  // kernel+options reuse them.
  std::string dir;
  std::string bundle_dir;

  // Worker processes; the shard table is inject::shard_ranges over
  // this count, the rule the thread path cuts by.  prepare_campaign
  // builds missing golden bundles on as many threads.
  unsigned workers = 1;

  // Wipe shards/claims/manifest before starting (bundles survive; every
  // load checks their seal anyway).
  bool fresh = false;

  // Test hook: each worker exits after completing this many shards,
  // simulating a worker killed mid-campaign.  0 = unlimited.
  std::uint64_t max_shards_per_worker = 0;

  // Test hook: how a forked worker terminates after its drain loop
  // returns — exercises the controller's exit-status accounting.
  enum class WorkerDeath : std::uint8_t {
    Clean,   // _exit(0/1) from the worker report (production behavior)
    Fail,    // _exit(9): a worker that hit an internal error
    Signal,  // raise(SIGKILL): a worker killed mid-campaign
  };
  WorkerDeath worker_death = WorkerDeath::Clean;

  // Controller wave retries before giving up (stale claims are cleared
  // and missing shards re-dispatched each wave).
  int max_attempts = 8;

  bool verbose = false;
};

// What prepare_campaign() wrote: everything a worker or aggregator
// needs to reconstruct the campaign deterministically.
struct Manifest {
  std::uint64_t config_hash = 0;  // FNV over the serialized config echo
  std::vector<inject::CampaignConfig> campaigns;
  inject::InjectorOptions options;
  std::uint64_t kernel_fp = 0;
  std::vector<std::size_t> functions_targeted;   // per campaign slot
  std::vector<std::uint64_t> target_counts;      // per campaign slot
  std::vector<std::string> workloads;            // every workload used
  std::vector<std::uint64_t> bundle_hashes;      // parallel to workloads:
                                                 // each bundle's trailer
  // The base file every bundle resolves through: the workload whose
  // post-boot image it is (the first of `workloads`) and its trailer.
  std::string base_workload;
  std::uint64_t base_hash = 0;
  // Shard table: [begin, end) positions over the concatenated
  // locality-sorted execution order, cut by inject::shard_ranges.
  std::vector<inject::ShardRange> shard_ranges;

  std::uint64_t total_targets() const {
    std::uint64_t n = 0;
    for (const std::uint64_t c : target_counts) n += c;
    return n;
  }
};

struct WorkerReport {
  bool ok = false;
  std::uint64_t shards_completed = 0;
  std::uint64_t shards_stolen = 0;  // completed shards this worker did
                                    // not statically own
  std::uint64_t runs = 0;
  std::uint64_t bundle_adoptions = 0;
};

struct ServiceResult {
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0;
  std::uint64_t total_runs = 0;
  std::uint64_t shard_count = 0;
  std::uint64_t shards_executed = 0;  // run by this invocation
  std::uint64_t shards_resumed = 0;   // adopted from a prior (killed) run
  std::uint64_t steals = 0;           // shards completed by a worker
                                      // other than shard % workers
  std::uint64_t corrupt_discarded = 0;
  // Worker-process exit accounting, summed over every wave: children
  // that exited non-zero and children killed by a signal.  Non-zero
  // values mean waves lost workers mid-shard (their shards were
  // re-claimed later); the campaign can still converge, but the caller
  // can see the attrition instead of it vanishing into a discarded
  // waitpid status.
  std::uint64_t workers_failed = 0;
  std::uint64_t workers_signaled = 0;
  int attempts = 0;
  std::uint64_t bundles_built = 0;
  std::uint64_t bundles_adopted = 0;
  // Materialized per-campaign runs (results only; stats stay with the
  // worker processes).  Filled when aggregate runs with materialize.
  std::vector<inject::CampaignRun> runs;
};

// Serializes the base file and the golden bundles (building only the
// ones missing or invalid, on `workers` threads; the file and manifest
// bytes do not depend on that count), computes the shard table over
// the deterministic execution order, and writes "<dir>/manifest.kfim"
// crash-safely.  When a manifest for a *different* config, or one whose
// base file no longer carries the recorded trailer, already exists in
// `dir`, stale shards and claims are wiped first; a matching manifest
// is reused as-is so completed shards resume.  Returns nullopt on
// failure (message on stderr).
std::optional<Manifest> prepare_campaign(const ServiceConfig& config,
                                         ServiceResult* result = nullptr);

// Loads "<dir>/manifest.kfim".  Nullopt when absent or corrupt, with
// `error` (when given) naming which: missing, truncated, foreign magic
// or version, a config echo that fails its hash or does not parse, a
// bad shard table, or bytes that fail the checksum trailer.
std::optional<Manifest> load_manifest(const std::string& dir,
                                      std::string* error = nullptr);

// One worker's drain: maps and checks the base file once, adopts the
// manifest's bundles against it (mmap, zero-copy),
// then runs inject::drain_shards over the shard table — its owned
// shards (index % workers == worker_id) first, then steals — claiming
// each by O_EXCL file and streaming it into the artifact store.  Runs
// in-process; run_service calls it from forked children,
// `kfi_campaignd worker` from a spawned process.  `max_shards` 0 =
// unlimited.
WorkerReport run_worker(const std::string& dir, unsigned worker_id,
                        unsigned workers, std::uint64_t max_shards = 0,
                        bool verbose = false);

// Opens every shard artifact (the seal check is its verification) and
// streams them through the k-way spec-order merge, folding the digest
// (and the materialized runs when `materialize`).  Artifacts that do
// not open are discarded (counted in result.corrupt_discarded) and
// reported as failure so the caller re-runs those shards.  On success fills result.digest/total_runs/
// runs and returns true.
bool aggregate_campaign(const std::string& dir, bool materialize,
                        ServiceResult& result);

// The full controller: prepare, fork worker waves until every shard
// has an artifact that opens (clearing stale claims between waves),
// aggregate, and fill the structural counters.  Bit-identity contract:
// result.digest equals results_digest() of the in-process path for the
// same campaign configs, at any worker count, including after resume.
ServiceResult run_service(const ServiceConfig& config,
                          bool materialize = false);

}  // namespace kfi::serve
