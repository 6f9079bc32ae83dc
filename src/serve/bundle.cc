#include "serve/bundle.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "machine/state_io.h"
#include "support/fsio.h"
#include "support/serial.h"
#include "support/strings.h"

namespace kfi::serve {
namespace {

constexpr std::uint32_t kBundleMagic = 0x4B464942;  // "KFIB"
constexpr std::uint32_t kBaseMagic = 0x4B464253;    // "KFBS"
// v2: appends the written-data footprint and the golden syscall-exit
// list (campaign E/F golden inputs) after the checkpoint ladder.
// v3: appends the footprint's per-rung dead bits after the syscall
// exits (campaign E's reconvergence input).
// v4: the options echo drops the full-restore flag byte that followed
// the checkpoint count.
// v5: a checksum trailer (support/fsio) over every preceding byte; the
// trailer is the hash the manifest records.
// v6: the full post-boot image moves to the campaign's one base file
// (same version); a bundle records the base file's trailer after its
// options echo, its boot state and rungs are deltas against the base,
// and snapshots no longer carry capture versions.
// v7: the coverage list goes (the first-touch keys are the coverage),
// and the boot state is written as a checkpoint, with its timer phase,
// pending flag and halt state (the base file shares the version).
// v8: a delta snapshot stores its chunks as a u32 count and that many
// strictly ascending u32 chunk indices, then exactly count chunk slots
// of payload, instead of a 4-byte slot for every chunk of the array
// (the base file shares the version).
constexpr std::uint32_t kBundleVersion = 8;

// The identity header both file kinds open with.  trace_capacity is a
// run-time knob applied by the Injector, never baked into artifacts, so
// it stays out of the identity.
void write_header(ByteWriter& writer, std::uint32_t magic,
                  const std::string& workload,
                  const inject::InjectorOptions& options,
                  std::uint64_t kernel_fp) {
  writer.u32(magic);
  writer.u32(kBundleVersion);
  writer.str(workload);
  writer.u64(kernel_fp);
  writer.u32(static_cast<std::uint32_t>(options.checkpoints));
  writer.u32(static_cast<std::uint32_t>(options.exec_engine));
}

bool header_matches(ByteReader& reader, std::uint32_t magic,
                    const std::string& workload,
                    const inject::InjectorOptions& options,
                    std::uint64_t kernel_fp) {
  if (reader.u32() != magic || reader.u32() != kBundleVersion ||
      reader.str() != workload || reader.u64() != kernel_fp) {
    return false;
  }
  const std::uint32_t checkpoints = reader.u32();
  const std::uint32_t engine = reader.u32();
  return reader.ok() &&
         checkpoints == static_cast<std::uint32_t>(options.checkpoints) &&
         engine == static_cast<std::uint32_t>(options.exec_engine);
}

// A mapped file whose seal holds (and equals `expect_hash` when that is
// non-zero), with its trailer; nullopt otherwise.
std::optional<std::pair<std::shared_ptr<const MappedFile>, std::uint64_t>>
map_sealed(const std::string& path, std::uint64_t expect_hash) {
  std::shared_ptr<const MappedFile> file = MappedFile::map(path);
  if (file == nullptr) return std::nullopt;
  // One pass over every byte: the seal check.  An expected hash is then
  // only an identity compare against the trailer.
  const std::optional<std::uint64_t> seal =
      check_seal(file->data(), file->size());
  if (!seal.has_value() || (expect_hash != 0 && *seal != expect_hash)) {
    return std::nullopt;
  }
  return std::make_pair(std::move(file), *seal);
}

// "<dir>/<kind>_<workload>_k<fp8>_c<checkpoints>_e<engine>.kfib".
std::string artifact_path(const char* kind, const std::string& dir,
                          const std::string& workload,
                          const inject::InjectorOptions& options,
                          std::uint64_t kernel_fp) {
  return format("%s/%s_%s_k%08x_c%d_e%d.kfib", dir.c_str(), kind,
                workload.c_str(), static_cast<std::uint32_t>(kernel_fp),
                options.checkpoints, static_cast<int>(options.exec_engine));
}

void write_bundle_body(ByteWriter& writer, const std::string& workload,
                       const inject::WorkloadGolden& artifact,
                       const inject::InjectorOptions& options,
                       std::uint64_t kernel_fp, std::uint64_t base_hash) {
  write_header(writer, kBundleMagic, workload, options, kernel_fp);
  writer.u64(base_hash);

  const inject::GoldenRun& golden = artifact.golden;
  writer.u8(golden.ok ? 1 : 0);
  writer.str(golden.console);
  writer.u32(golden.exit_code);
  writer.u64(golden.fs_digest);
  writer.u64(golden.cycles);
  writer.u8(golden.disk.bootable ? 1 : 0);
  writer.u8(golden.disk.fs_damaged ? 1 : 0);
  writer.u8(golden.disk.fsck_unrepairable ? 1 : 0);
  writer.u8(golden.disk.repair_verified ? 1 : 0);

  // First-touch is serialized address-sorted so the bundle bytes (and
  // therefore the content hash the manifest records) are a pure
  // function of the artifact, not of hash-table iteration order.
  std::vector<std::pair<std::uint32_t, machine::TouchWindow>> touch(
      artifact.first_touch.begin(), artifact.first_touch.end());
  std::sort(touch.begin(), touch.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  writer.u64(touch.size());
  for (const auto& [addr, window] : touch) {
    writer.u32(addr);
    writer.u64(window.first);
    writer.u64(window.last);
  }

  machine::write_checkpoint(writer, artifact.boot->state);
  writer.u32(static_cast<std::uint32_t>(artifact.ladder.size()));
  for (const machine::Checkpoint& rung : artifact.ladder) {
    machine::write_checkpoint(writer, rung);
  }

  // The write footprint is already address-sorted (a build invariant),
  // so bundle bytes stay a pure function of the artifact.
  writer.u64(artifact.write_footprint.size());
  for (const std::uint32_t addr : artifact.write_footprint) writer.u32(addr);
  writer.u64(artifact.syscalls.size());
  for (const inject::SyscallExit& exit : artifact.syscalls) {
    writer.u64(exit.cycle);
    writer.u32(exit.eax);
  }
  writer.u64(artifact.dead_bits.size());
  for (const std::uint64_t word : artifact.dead_bits) writer.u64(word);
}

}  // namespace

std::optional<std::uint64_t> write_base(const std::string& path,
                                        const std::string& workload,
                                        const machine::BaseImage& base,
                                        const inject::InjectorOptions& options,
                                        std::uint64_t kernel_fp) {
  ByteWriter head;
  write_header(head, kBaseMagic, workload, options, kernel_fp);
  machine::write_snapshot_header(head, base.mem);
  ByteWriter between;
  machine::write_snapshot_header(between, base.disk);
  return write_sealed_file(
      path, {{head.buffer().data(), head.size()},
             {base.mem.payload(), base.mem.payload_size()},
             {between.buffer().data(), between.size()},
             {base.disk.payload(), base.disk.payload_size()}});
}

std::optional<LoadedBase> load_base(const std::string& path,
                                    const std::string& workload,
                                    const inject::InjectorOptions& options,
                                    std::uint64_t kernel_fp,
                                    std::uint64_t expect_hash) {
  auto sealed = map_sealed(path, expect_hash);
  if (!sealed.has_value()) return std::nullopt;
  const auto& [file, seal] = *sealed;
  ByteReader reader(file->data(), file->size() - kSealBytes);
  if (!header_matches(reader, kBaseMagic, workload, options, kernel_fp)) {
    return std::nullopt;
  }
  std::shared_ptr<machine::BaseImage> image = machine::read_base_image(reader);
  if (image == nullptr || reader.remaining() != 0) return std::nullopt;
  image->keepalive = file;
  LoadedBase loaded;
  loaded.image = std::move(image);
  loaded.content_hash = seal;
  loaded.size = file->size();
  return loaded;
}

std::optional<std::uint64_t> write_bundle(
    const std::string& path, const std::string& workload,
    const inject::WorkloadGolden& artifact,
    const inject::InjectorOptions& options, std::uint64_t kernel_fp,
    std::uint64_t base_hash) {
  // A sizing pass first, so the body is written into a buffer of its
  // final size: no regrowth copies, no pages faulted twice.
  ByteWriter sizer = ByteWriter::sizer();
  write_bundle_body(sizer, workload, artifact, options, kernel_fp, base_hash);
  ByteWriter writer;
  writer.reserve(sizer.size());
  write_bundle_body(writer, workload, artifact, options, kernel_fp, base_hash);
  return write_sealed_file(path, writer.buffer());
}

std::optional<LoadedBundle> load_bundle(const std::string& path,
                                        const std::string& workload,
                                        const inject::InjectorOptions& options,
                                        std::uint64_t kernel_fp,
                                        const LoadedBase& base,
                                        std::uint64_t expect_hash) {
  auto sealed = map_sealed(path, expect_hash);
  if (!sealed.has_value()) return std::nullopt;
  auto& [file, seal] = *sealed;
  ByteReader reader(file->data(), file->size() - kSealBytes);
  if (!header_matches(reader, kBundleMagic, workload, options, kernel_fp) ||
      reader.u64() != base.content_hash || !reader.ok()) {
    return std::nullopt;
  }

  LoadedBundle loaded;
  inject::WorkloadGolden& artifact = loaded.artifact;
  inject::GoldenRun& golden = artifact.golden;
  golden.ok = reader.u8() != 0;
  golden.console = reader.str();
  golden.exit_code = reader.u32();
  golden.fs_digest = reader.u64();
  golden.cycles = reader.u64();
  golden.disk.bootable = reader.u8() != 0;
  golden.disk.fs_damaged = reader.u8() != 0;
  golden.disk.fsck_unrepairable = reader.u8() != 0;
  golden.disk.repair_verified = reader.u8() != 0;

  const std::uint64_t touch_count = reader.u64();
  if (!reader.ok() || touch_count > reader.remaining() / 20) {
    return std::nullopt;
  }
  artifact.first_touch.reserve(static_cast<std::size_t>(touch_count));
  for (std::uint64_t i = 0; i < touch_count; ++i) {
    const std::uint32_t addr = reader.u32();
    machine::TouchWindow window;
    window.first = reader.u64();
    window.last = reader.u64();
    if (window.first > window.last) return std::nullopt;
    artifact.first_touch.emplace(addr, window);
  }

  // The snapshots borrow their payloads straight from the mappings —
  // the zero-copy adoption path — and resolve through the base image.
  // Rung placement and skipping assume the rungs ascend past the boot.
  auto boot = std::make_shared<machine::BootState>();
  bool ok = false;
  boot->state = machine::read_checkpoint(reader, *base.image, ok);
  if (!ok) return std::nullopt;
  boot->base = base.image;
  artifact.boot = boot;
  const std::uint32_t ladder_count = reader.u32();
  if (!reader.ok() || ladder_count > 4096) return std::nullopt;
  artifact.ladder.reserve(ladder_count);
  std::uint64_t prev_cycle = boot->state.cycle;
  for (std::uint32_t i = 0; i < ladder_count; ++i) {
    artifact.ladder.push_back(
        machine::read_checkpoint(reader, *base.image, ok));
    if (!ok || artifact.ladder.back().cycle <= prev_cycle) {
      return std::nullopt;
    }
    prev_cycle = artifact.ladder.back().cycle;
  }
  const std::uint64_t footprint_count = reader.u64();
  if (!reader.ok() || footprint_count > reader.remaining() / 4) {
    return std::nullopt;
  }
  artifact.write_footprint.reserve(
      static_cast<std::size_t>(footprint_count));
  for (std::uint64_t i = 0; i < footprint_count; ++i) {
    const std::uint32_t addr = reader.u32();
    // Campaign E flips these bytes: each must lie in RAM.  dead_at()
    // binary-searches them: they must strictly ascend.
    if (addr >= base.image->mem.size() ||
        (i > 0 && addr <= artifact.write_footprint.back())) {
      return std::nullopt;
    }
    artifact.write_footprint.push_back(addr);
  }
  const std::uint64_t syscall_count = reader.u64();
  if (!reader.ok() || syscall_count > reader.remaining() / 12) {
    return std::nullopt;
  }
  artifact.syscalls.reserve(static_cast<std::size_t>(syscall_count));
  for (std::uint64_t i = 0; i < syscall_count; ++i) {
    inject::SyscallExit exit;
    exit.cycle = reader.u64();
    exit.eax = reader.u32();
    // Campaign F resumes and skips exits assuming golden order.
    if (i > 0 && exit.cycle < artifact.syscalls.back().cycle) {
      return std::nullopt;
    }
    artifact.syscalls.push_back(exit);
  }
  // Exactly one bit per (footprint byte, rung): dead_at() indexes it.
  const std::uint64_t dead_count = reader.u64();
  if (!reader.ok() || dead_count > reader.remaining() / 8 ||
      dead_count != artifact.dead_words()) {
    return std::nullopt;
  }
  artifact.dead_bits.reserve(static_cast<std::size_t>(dead_count));
  for (std::uint64_t i = 0; i < dead_count; ++i) {
    artifact.dead_bits.push_back(reader.u64());
  }
  if (!reader.ok()) return std::nullopt;

  loaded.content_hash = seal;
  loaded.size = file->size();
  loaded.keepalive = std::move(file);
  return loaded;
}

std::string bundle_path(const std::string& dir, const std::string& workload,
                        const inject::InjectorOptions& options,
                        std::uint64_t kernel_fp) {
  return artifact_path("bundle", dir, workload, options, kernel_fp);
}

std::string base_path(const std::string& dir, const std::string& workload,
                      const inject::InjectorOptions& options,
                      std::uint64_t kernel_fp) {
  return artifact_path("base", dir, workload, options, kernel_fp);
}

}  // namespace kfi::serve
