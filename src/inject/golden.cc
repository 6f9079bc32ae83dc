#include "inject/golden.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "fsutil/kfs.h"
#include "inject/targets.h"
#include "vm/liveness.h"

namespace kfi::inject {
namespace {

std::runtime_error no_boot(const std::string& name) {
  return std::runtime_error("golden cache: workload '" + name +
                            "' failed to boot");
}

// What the capture pass records per executed instruction: the first
// and last cycle of each kernel-text address, kept in per-page tables
// allocated on a page's first execution (one table update per
// instruction, not a hash-map lookup), and every syscall exit — each
// execution of the syscall-exit store, with the return value about to
// be written back.
class CaptureObserver final : public vm::ExecObserver {
 public:
  CaptureObserver(const vm::Cpu& cpu, std::uint32_t syscall_site,
                  std::vector<SyscallExit>& syscalls)
      : cpu_(cpu),
        syscall_site_(syscall_site),
        syscalls_(syscalls),
        pages_((vm::kTextEnd - vm::kArchTextBase + vm::kPageMask) /
               vm::kPageSize) {}

  void executes(std::uint32_t pc, std::uint64_t cycle) override {
    if (pc == syscall_site_ && pc != 0) {
      syscalls_.push_back(SyscallExit{cycle, cpu_.reg(isa::Reg::Eax)});
    }
    if (pc < vm::kArchTextBase || pc >= vm::kTextEnd) return;
    std::unique_ptr<machine::TouchWindow[]>& page =
        pages_[(pc - vm::kArchTextBase) / vm::kPageSize];
    if (page == nullptr) {
      page = std::make_unique<machine::TouchWindow[]>(vm::kPageSize);
    }
    // `cycle` is never 0: the capture pass starts from the post-boot
    // snapshot.
    machine::TouchWindow& window =
        page[(pc - vm::kArchTextBase) % vm::kPageSize];
    if (window.last == 0) window.first = cycle;
    window.last = cycle;
  }

  // Every executed kernel-text address with its window.
  std::unordered_map<std::uint32_t, machine::TouchWindow> windows() const {
    std::unordered_map<std::uint32_t, machine::TouchWindow> out;
    for (std::size_t page = 0; page < pages_.size(); ++page) {
      if (pages_[page] == nullptr) continue;
      for (std::uint32_t i = 0; i < vm::kPageSize; ++i) {
        if (pages_[page][i].last == 0) continue;
        out.emplace(vm::kArchTextBase +
                        static_cast<std::uint32_t>(page) * vm::kPageSize + i,
                    pages_[page][i]);
      }
    }
    return out;
  }

 private:
  const vm::Cpu& cpu_;
  std::uint32_t syscall_site_;
  std::vector<SyscallExit>& syscalls_;
  std::vector<std::unique_ptr<machine::TouchWindow[]>> pages_;
};

std::uint64_t nanoseconds_since(std::chrono::steady_clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t)
          .count());
}

}  // namespace

GoldenCache::GoldenCache(InjectorOptions options,
                         const kernel::KernelImage* image)
    : options_(options),
      image_(image != nullptr ? *image : kernel::built_kernel()),
      root_disk_(machine::make_root_disk()) {
  init_pristine_ = *fsutil::read_file(root_disk_, "/sbin/init");
  libc_pristine_ = *fsutil::read_file(root_disk_, "/lib/libc.so");
}

GoldenCache::~GoldenCache() = default;

machine::MachineOptions GoldenCache::machine_options() const {
  machine::MachineOptions machine_options;
  machine_options.exec_engine = options_.exec_engine;
  return machine_options;
}

GoldenCache::Entry* GoldenCache::entry_for(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = entries_[name];
  if (slot == nullptr) slot = std::make_unique<Entry>();
  return slot.get();
}

const WorkloadGolden& GoldenCache::workload(const std::string& name) {
  Entry* entry = entry_for(name);
  // The entry pointer is stable (map of unique_ptr) and the once_flag
  // both serializes the build and publishes the artifact to every
  // waiter; a build that throws leaves the flag unset, so a later call
  // may retry.
  std::call_once(entry->once, [&] { build(name, entry->artifact); });
  return entry->artifact;
}

void GoldenCache::build_workloads(
    const std::vector<std::string>& names, unsigned threads,
    const std::function<void(std::size_t, const WorkloadGolden&)>& then) {
  if (!names.empty()) capture_base(names[0]);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;  // guards error
  std::exception_ptr error;
  const auto builder = [&] {
    while (!failed) {
      const std::size_t i = next++;
      if (i >= names.size()) return;
      try {
        const WorkloadGolden& artifact = workload(names[i]);
        if (then) then(i, artifact);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (error == nullptr) error = std::current_exception();
        failed = true;
      }
    }
  };
  const std::size_t spawn =
      std::min<std::size_t>(std::max(threads, 1u), names.size());
  std::vector<std::thread> pool;
  pool.reserve(spawn);
  for (std::size_t t = 1; t < spawn; ++t) {
    try {
      pool.emplace_back(builder);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the caller's builder drains the rest
    }
  }
  builder();
  for (std::thread& t : pool) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

bool GoldenCache::adopt_workload(const std::string& name,
                                 WorkloadGolden artifact,
                                 std::shared_ptr<const void> keepalive) {
  if (artifact.boot == nullptr) return false;
  adopt_base(artifact.boot->base);
  if (base() != artifact.boot->base) return false;
  Entry* entry = entry_for(name);
  bool adopted = false;
  std::call_once(entry->once, [&] {
    entry->artifact = std::move(artifact);
    entry->keepalive = std::move(keepalive);
    count_held(entry->artifact);
    adoptions_.fetch_add(1, std::memory_order_relaxed);
    adopted = true;
  });
  return adopted;
}

void GoldenCache::capture_base(const std::string& name) {
  // Booting under the lock makes every concurrent build wait for the
  // one base instead of capturing its own.
  const std::lock_guard<std::mutex> lock(base_mutex_);
  if (base_ != nullptr) return;
  machine::Machine machine(image_, workloads::built_workload(name),
                           root_disk_, machine_options());
  if (!machine.boot()) throw no_boot(name);
  base_ = machine.boot_state()->base;
  // The boot is this workload's BootState too (it stores no chunk):
  // build() adopts it instead of booting the workload again.
  base_boot_ = machine.boot_state();
  base_workload_ = name;
}

bool GoldenCache::adopt_base(std::shared_ptr<const machine::BaseImage> base) {
  const std::lock_guard<std::mutex> lock(base_mutex_);
  if (base_ != nullptr || base == nullptr) return false;
  base_ = std::move(base);
  return true;
}

std::shared_ptr<const machine::BaseImage> GoldenCache::base() const {
  const std::lock_guard<std::mutex> lock(base_mutex_);
  return base_;
}

std::shared_ptr<const machine::BootState> GoldenCache::base_boot(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(base_mutex_);
  return name == base_workload_ ? base_boot_ : nullptr;
}

double GoldenCache::capture_mcycles_per_s() const {
  const std::uint64_t ns = capture_ns_.load(std::memory_order_relaxed);
  if (ns == 0) return 0.0;
  return static_cast<double>(capture_cycles_.load(std::memory_order_relaxed)) /
         (static_cast<double>(ns) / 1e3);
}

GoldenCache::HeldBytes GoldenCache::held_bytes() const {
  HeldBytes held;
  if (const auto image = base()) held.base = image->storage_bytes();
  held.boots = boot_bytes_.load(std::memory_order_relaxed);
  held.ladders = ladder_bytes_.load(std::memory_order_relaxed);
  return held;
}

void GoldenCache::count_held(const WorkloadGolden& artifact) {
  std::uint64_t ladder = 0;
  for (const machine::Checkpoint& rung : artifact.ladder) {
    ladder += rung.mem.storage_bytes() + rung.disk.storage_bytes();
  }
  const machine::Checkpoint& boot = artifact.boot->state;
  boot_bytes_.fetch_add(boot.mem.storage_bytes() + boot.disk.storage_bytes(),
                        std::memory_order_relaxed);
  ladder_bytes_.fetch_add(ladder, std::memory_order_relaxed);
}

bool WorkloadGolden::dead_at(std::uint32_t phys, std::size_t rung) const {
  const auto it =
      std::lower_bound(write_footprint.begin(), write_footprint.end(), phys);
  if (it == write_footprint.end() || *it != phys || rung >= ladder.size()) {
    return false;
  }
  const std::size_t bit =
      static_cast<std::size_t>(it - write_footprint.begin()) * ladder.size() +
      rung;
  return (dead_bits[bit / 64] >> (bit % 64) & 1) != 0;
}

void GoldenCache::build(const std::string& name, WorkloadGolden& out) {
  const auto began = std::chrono::steady_clock::now();
  capture_base(name);
  machine::Machine machine(image_, workloads::built_workload(name),
                           root_disk_, machine_options());
  if (const auto boot = base_boot(name)) {
    machine.adopt_boot(boot);
  } else if (!machine.boot(base())) {
    throw no_boot(name);
  }
  const auto incomplete = [&name] {
    return std::runtime_error("golden cache: golden run for '" + name +
                              "' did not complete");
  };

  // The fault-free run once, untraced, for its length: the capture pass
  // below takes the checkpoint ladder at evenly spaced cycles of it.
  constexpr std::uint64_t kGoldenBudget = 100'000'000;
  machine.restore();
  const std::uint64_t start = machine.cpu().cycles();
  if (machine.run(kGoldenBudget).exit != machine::RunExit::Completed) {
    throw incomplete();
  }
  const std::uint64_t length = machine.cpu().cycles() - start;
  std::vector<std::uint64_t> at;
  for (int k = 1; k <= options_.checkpoints; ++k) {
    at.push_back(start + length * static_cast<std::uint64_t>(k) /
                             (static_cast<std::uint64_t>(options_.checkpoints) + 1));
  }

  // The capture pass: the same run again on the same engine, with every
  // executed instruction observed — its touch window (whose addresses
  // are the coverage) and, at the syscall-exit store, every syscall
  // return (campaign F's timeline) — and byte liveness recorded (which
  // also yields the written-data footprint, campaign E's target
  // population).  It stops at each rung cycle with a resumable deadline
  // exit and captures the rung there, the stop and capture an injected
  // run makes at a shadow rung and the stop it compares golden rungs
  // at.  Each rung is a state every injected run passes through before
  // its trigger fires.  Observing and stopping change nothing the run
  // does, so the captured timeline is the untraced one.
  const auto capture_began = std::chrono::steady_clock::now();
  CaptureObserver observer(machine.cpu(), syscall_return_site(image_),
                           out.syscalls);
  machine.cpu().set_exec_observer(&observer);
  vm::ByteLiveness liveness(machine.memory().size(), at.size());
  machine.set_liveness(&liveness);
  const machine::RunResult run =
      machine.capture_ladder(at, kGoldenBudget, out.ladder);
  machine.cpu().set_exec_observer(nullptr);
  machine.set_liveness(nullptr);
  capture_cycles_.fetch_add(machine.cpu().cycles() - start,
                            std::memory_order_relaxed);
  capture_ns_.fetch_add(nanoseconds_since(capture_began),
                        std::memory_order_relaxed);

  GoldenRun& golden = out.golden;
  golden.ok = run.exit == machine::RunExit::Completed;
  golden.console = machine.console_output();
  golden.exit_code = run.exit_code;
  golden.fs_digest = fsutil::tree_digest(machine.disk_image());
  golden.cycles = machine.cpu().cycles() - start;
  if (!golden.ok) throw incomplete();
  if (golden.cycles != length) {
    throw std::runtime_error("golden cache: capture pass for '" + name +
                             "' left the untraced timeline");
  }

  out.first_touch = observer.windows();
  out.write_footprint = liveness.footprint();
  const std::size_t rungs = out.ladder.size();
  out.dead_bits.assign(out.dead_words(), 0);
  for (std::size_t i = 0; i < out.write_footprint.size(); ++i) {
    for (std::size_t k = 0; k < rungs; ++k) {
      if (liveness.dead(out.write_footprint[i], k)) {
        const std::size_t bit = i * rungs + k;
        out.dead_bits[bit / 64] |= std::uint64_t{1} << (bit % 64);
      }
    }
  }

  // Classify the golden end-of-run disk exactly as run_one() would, so
  // a reconverged run can copy the fields instead of recomputing them
  // from a bit-identical image.
  golden.disk = judge_disk(machine.disk_image());

  // The BootState outlives this transient builder machine; worker
  // machines adopt it, and it holds the base alive for the ladder.
  out.boot = machine.boot_state();
  count_held(out);
  builds_.fetch_add(1, std::memory_order_relaxed);
  build_ns_.fetch_add(nanoseconds_since(began), std::memory_order_relaxed);
}

DiskVerdict GoldenCache::judge_disk(const disk::DiskImage& image) const {
  DiskVerdict verdict;
  const fsutil::FsckReport fsck = fsutil::fsck(image);
  verdict.bootable = disk_bootable(image);
  verdict.fs_damaged =
      fsck.verdict != fsutil::FsckVerdict::Clean || !verdict.bootable;
  verdict.fsck_unrepairable =
      fsck.verdict == fsutil::FsckVerdict::Unrepairable;
  if (fsck.verdict == fsutil::FsckVerdict::Repairable) {
    // Validate the severity taxonomy: a "severe" image must actually be
    // recoverable by the interactive-fsck pass.
    disk::DiskImage copy = image;
    fsutil::fsck_repair(copy);
    verdict.repair_verified =
        fsutil::fsck(copy).verdict == fsutil::FsckVerdict::Clean;
  }
  return verdict;
}

bool GoldenCache::disk_bootable(const disk::DiskImage& image) const {
  const auto init_file = fsutil::read_file(image, "/sbin/init");
  if (!init_file.has_value() || *init_file != init_pristine_) return false;
  const auto libc_file = fsutil::read_file(image, "/lib/libc.so");
  if (!libc_file.has_value() || *libc_file != libc_pristine_) return false;
  return true;
}

}  // namespace kfi::inject
