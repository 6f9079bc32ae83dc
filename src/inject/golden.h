// Shared golden-artifact cache.
//
// Everything an injection campaign needs per workload besides the
// machine itself — the fault-free GoldenRun, the first/last-touch map
// (whose keys are the golden coverage), the post-boot BootState, and
// the checkpoint ladder — is a pure function of (kernel image,
// workload, root disk, options).  A GoldenCache computes each workload's artifact bundle
// exactly once per campaign, on whichever thread asks first, and hands
// out immutable references; worker Injectors borrow the cache by
// shared_ptr instead of re-running golden runs per thread.
//
// The cache holds exactly one full RAM+disk snapshot, its base image:
// the post-boot image of the first workload it builds (or the one
// adopt_base() installed).  Every other snapshot it holds — each
// workload's BootState and checkpoint ladder — is a delta against that
// base, so a workload costs the pages its boot and golden run leave
// different from the base instead of 20 MiB apiece.  Every other
// workload boots its own builder machine and compares every chunk with
// the base, so exactness holds by construction, with no assumption
// that two workloads' boots agree; the base's own workload adopts the
// boot that captured the base.
//
// Thread safety: workload() may be called concurrently from any number
// of threads; a per-entry std::once_flag serializes the build of one
// workload while builds of different workloads proceed in parallel.
// Everything a caller can reach from the returned reference is
// immutable after the build completes (call_once is the release/acquire
// barrier), so readers need no further synchronization.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "disk/disk.h"
#include "inject/outcome.h"
#include "machine/machine.h"

namespace kfi::inject {

// End-of-run disk classification (GoldenCache::judge_disk): fsck's
// verdict, the paper's "will it reboot" check, and whether the
// interactive repair really cleans a repairable image.
struct DiskVerdict {
  bool bootable = true;
  bool fs_damaged = false;  // fsck not clean, or not bootable
  bool fsck_unrepairable = false;
  bool repair_verified = false;  // a repairable image that repair cleans
};

struct GoldenRun {
  bool ok = false;
  std::string console;
  std::uint32_t exit_code = 0;
  std::uint64_t fs_digest = 0;
  std::uint64_t cycles = 0;  // fault-free run length
  // Precomputed once so a run proven to reconverge onto the golden
  // timeline can take the golden outcome without re-running fsck on an
  // identical image.
  DiskVerdict disk;
};

// Watchdog budget of an injected run over a golden run of
// `golden_cycles`: injected runs that still complete stay close to the
// golden length, so a modest margin keeps hang detection cheap.
inline std::uint64_t run_budget(std::uint64_t golden_cycles) {
  constexpr double kBudgetFactor = 1.6;
  constexpr std::uint64_t kBudgetSlack = 400'000;
  return static_cast<std::uint64_t>(static_cast<double>(golden_cycles) *
                                    kBudgetFactor) +
         kBudgetSlack;
}

struct InjectorOptions {
  // Number of golden-run checkpoints per workload (the checkpoint
  // ladder).  Each injection resumes from the latest checkpoint that
  // precedes its target's first execution, shrinking the pre-trigger
  // replay from O(golden) to O(golden / checkpoints).  0 disables the
  // ladder (every run replays from the post-boot snapshot).
  int checkpoints = 24;
  // Execution engine for every machine built against this cache;
  // results are bit-identical between engines (defaults from KFI_EXEC).
  machine::ExecEngine exec_engine = machine::default_exec_engine();
  // Capacity of the per-injector forensics TraceBuffer (0 = tracing
  // off, the default).  Recording is strictly observational: outcomes
  // and the campaign result digest are bit-identical either way.
  std::size_t trace_capacity = 0;
};

// One syscall exit observed during the golden run: the cycle the
// syscall-exit store was reached and the return value about to be
// written back.  Campaign F picks its injection point (the Nth
// successful exit) and derives cascade baselines from this list.
struct SyscallExit {
  std::uint64_t cycle = 0;
  std::uint32_t eax = 0;

  // Syscall returns in (-4096, 0) are errno failures.
  bool failed() const { return eax >= 0xFFFFF001u; }
};

// One workload's complete golden artifact bundle.  Immutable once
// built; the BootState is held by shared_ptr because worker machines
// adopt it, and it holds the base image alive, through which the
// ladder's delta snapshots resolve.
struct WorkloadGolden {
  GoldenRun golden;
  // First/last cycle of every kernel-text address the golden run
  // executes; its keys are the golden coverage.
  std::unordered_map<std::uint32_t, machine::TouchWindow> first_touch;
  std::shared_ptr<const machine::BootState> boot;
  std::vector<machine::Checkpoint> ladder;
  // Physical byte addresses written by cpl-0 stores during the golden
  // run, address-sorted (campaign E's fault-target population: data
  // faults land on bytes the kernel demonstrably uses).
  std::vector<std::uint32_t> write_footprint;
  // Every syscall exit in golden order (campaign F's timeline).
  std::vector<SyscallExit> syscalls;
  // Campaign E's reconvergence input (DESIGN.md §7, layer 3): bit
  // i * ladder.size() + k is set when write_footprint[i] is dead at
  // rung k — the golden run's next access to the byte at or after the
  // rung's cycle is a write, or there is none.
  std::vector<std::uint64_t> dead_bits;

  // Whether the RAM byte at `phys` is dead at ladder rung `rung`; false
  // for bytes outside the footprint.
  bool dead_at(std::uint32_t phys, std::size_t rung) const;
  // Words dead_bits holds for this footprint and ladder.
  std::size_t dead_words() const {
    return (write_footprint.size() * ladder.size() + 63) / 64;
  }
};

class GoldenCache {
 public:
  // `image` selects the kernel build to inject into (default: the
  // standard build; pass &kernel::built_hardened_kernel() for the
  // assertion-hardened variant).
  explicit GoldenCache(InjectorOptions options = {},
                       const kernel::KernelImage* image = nullptr);
  ~GoldenCache();

  GoldenCache(const GoldenCache&) = delete;
  GoldenCache& operator=(const GoldenCache&) = delete;

  // The workload's golden artifacts, building them on first request
  // (thread-safe, exactly once per workload).  Throws if the workload
  // fails to boot or its golden run does not complete.
  const WorkloadGolden& workload(const std::string& name);

  // Builds the artifacts of every name through workload() on up to
  // `threads` threads, the caller among them; at one thread (or one
  // name) the caller builds them alone, in order, and no thread starts.
  // While the cache has no base image the caller first boots names[0]
  // alone and takes its post-boot image as the base, so the base — and
  // every delta against it — depends on names[0] only, never on thread
  // timing.
  // Threads claim names from one atomic index, so a name already built
  // or adopted costs a lookup.  `then(i, artifact)`, when given, runs
  // on the thread that got names[i], right after its artifact is
  // ready.  The first exception a build or `then` throws stops further
  // claims and is re-thrown here once every thread has joined.
  void build_workloads(
      const std::vector<std::string>& names, unsigned threads,
      const std::function<void(std::size_t, const WorkloadGolden&)>& then =
          nullptr);

  // Installs a prebuilt artifact under `name` — the campaign-service
  // path, where worker processes deserialize a golden bundle instead of
  // re-simulating boot and the golden run.  `keepalive` (may be null)
  // is retained for the entry's lifetime; it owns whatever the
  // artifact's snapshots borrow (the bundle file's mmap).  The
  // artifact must resolve through this cache's base image (it becomes
  // the base when the cache has none yet).  Returns false when it does
  // not, or when an artifact for `name` was already built or adopted
  // (the existing entry wins — references to it may be live).
  bool adopt_workload(const std::string& name, WorkloadGolden artifact,
                      std::shared_ptr<const void> keepalive);

  // Boots `name` (no golden run) and installs its post-boot image as
  // the base, unless the cache already has one; build_workloads() does
  // this with its first name.  The boot is kept: building `name` later
  // adopts it instead of booting again.  Throws if the workload fails
  // to boot.
  void capture_base(const std::string& name);

  // Installs `base` as the image every later build deltas against — a
  // worker's mapped base file.  Returns false, changing nothing, when
  // the cache already has a base.
  bool adopt_base(std::shared_ptr<const machine::BaseImage> base);

  // The base image (null before the first build or adoption).
  std::shared_ptr<const machine::BaseImage> base() const;

  // Snapshot payload bytes the cache holds: the base image, the boot
  // deltas and the checkpoint ladders (built and adopted artifacts).
  struct HeldBytes {
    std::uint64_t base = 0;
    std::uint64_t boots = 0;
    std::uint64_t ladders = 0;
  };
  HeldBytes held_bytes() const;

  // Number of artifacts installed by adopt_workload (never rebuilt).
  std::uint64_t adoptions() const {
    return adoptions_.load(std::memory_order_relaxed);
  }

  // Number of golden builds actually executed (== number of distinct
  // workloads requested so far).  The built-once regression test pins
  // this against thread count.
  std::uint64_t golden_builds() const {
    return builds_.load(std::memory_order_relaxed);
  }
  // Host seconds those builds took, summed over workloads.
  double build_seconds() const {
    return static_cast<double>(build_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }
  // Simulated Mcycles per host second of the builds' capture passes
  // (0 before the first build).
  double capture_mcycles_per_s() const;

  const InjectorOptions& options() const { return options_; }
  const kernel::KernelImage& image() const { return image_; }
  const disk::DiskImage& root_disk() const { return root_disk_; }

  // Classifies an end-of-run disk; copies the image only to try the
  // repair of a repairable one.
  DiskVerdict judge_disk(const disk::DiskImage& image) const;

 private:
  // True when /sbin/init and /lib/libc.so on `image` are byte-identical
  // to the pristine root disk (the paper's "will it reboot" check).
  bool disk_bootable(const disk::DiskImage& image) const;

  struct Entry {
    std::once_flag once;
    WorkloadGolden artifact;
    // Owner of externally-backed artifact storage (a bundle mmap);
    // null for locally built entries.
    std::shared_ptr<const void> keepalive;
  };

  Entry* entry_for(const std::string& name);

  void build(const std::string& name, WorkloadGolden& out);
  // capture_base()'s boot when it booted `name`, else null.
  std::shared_ptr<const machine::BootState> base_boot(
      const std::string& name) const;
  machine::MachineOptions machine_options() const;
  // Adds an installed artifact's boot delta and ladder to held_bytes().
  void count_held(const WorkloadGolden& artifact);

  InjectorOptions options_;
  const kernel::KernelImage& image_;
  disk::DiskImage root_disk_;
  std::vector<std::uint8_t> init_pristine_;
  std::vector<std::uint8_t> libc_pristine_;

  std::mutex mutex_;  // guards entries_ (map structure only)
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  // Guards base_, base_boot_ and base_workload_ (held through
  // capture_base's boot).
  mutable std::mutex base_mutex_;
  std::shared_ptr<const machine::BaseImage> base_;
  std::shared_ptr<const machine::BootState> base_boot_;
  std::string base_workload_;
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> build_ns_{0};
  std::atomic<std::uint64_t> capture_cycles_{0};
  std::atomic<std::uint64_t> capture_ns_{0};
  std::atomic<std::uint64_t> adoptions_{0};
  std::atomic<std::uint64_t> boot_bytes_{0};
  std::atomic<std::uint64_t> ladder_bytes_{0};
};

}  // namespace kfi::inject
