#include "analysis/store.h"

#include <algorithm>
#include <filesystem>
#include <queue>
#include <utility>

#include "support/strings.h"
#include "vm/layout.h"

namespace kfi::analysis {
namespace {

constexpr std::uint32_t kShardMagic = 0x4B464953;  // "KFIS"
// v3: one record layout (always the extended one), a checksum trailer,
// and a fixed file name in place of the content hash in the name that
// v1 (InstrBit records) and v2 (extended records) files carried.
constexpr std::uint32_t kShardVersion = 3;

}  // namespace

void ResultDigest::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ = (h_ ^ static_cast<std::uint8_t>(v >> (8 * i))) * kFnvPrime;
  }
}

void ResultDigest::add(const inject::InjectionResult& r) {
  mix(static_cast<std::uint64_t>(r.outcome));
  mix(r.activation_cycle);
  mix(static_cast<std::uint64_t>(r.cause));
  mix(r.crash_eip);
  mix(r.crash_addr);
  mix(r.latency_cycles);
  mix(static_cast<std::uint64_t>(r.severity));
  mix((r.fs_damaged ? 1u : 0u) | (r.bootable ? 2u : 0u) |
      (r.propagated ? 4u : 0u));
  mix(r.spec.instr_addr);
  // Extended fault models fold their extra identifying fields too.  An
  // InstrBit result mixes nothing further, so the pinned A/B/C digest
  // (54fdd95d1638c920) is byte-for-byte the historical fold.
  if (r.spec.model != inject::FaultModel::InstrBit) {
    mix(static_cast<std::uint64_t>(r.spec.model));
    mix(r.spec.target_reg);
    mix(r.spec.data_index);
    mix(r.spec.errno_value);
    mix(r.data_addr);
    mix(r.syscalls_after);
    mix(r.cascade_syscalls);
  }
}

bool result_is_extended(const inject::InjectionResult& r) {
  return r.spec.model != inject::FaultModel::InstrBit;
}

std::uint64_t results_digest(const std::vector<inject::CampaignRun>& runs) {
  ResultDigest digest;
  for (const inject::CampaignRun& run : runs) {
    for (const inject::InjectionResult& r : run.results) digest.add(r);
  }
  return digest.value();
}

void write_result(ByteWriter& writer, const inject::InjectionResult& r,
                  bool extended) {
  writer.u32(static_cast<std::uint32_t>(r.spec.campaign));
  writer.str(r.spec.function);
  writer.u32(static_cast<std::uint32_t>(r.spec.subsystem));
  writer.u32(r.spec.instr_addr);
  writer.u32(r.spec.instr_len);
  writer.u32(r.spec.byte_index);
  writer.u32(r.spec.bit_index);
  writer.str(r.spec.workload);
  writer.u32(static_cast<std::uint32_t>(r.outcome));
  writer.u64(r.activation_cycle);
  writer.u32(static_cast<std::uint32_t>(r.cause));
  writer.u32(r.crash_eip);
  writer.u32(r.crash_addr);
  writer.u32(static_cast<std::uint32_t>(r.crash_subsystem));
  writer.u32(r.propagated ? 1 : 0);
  writer.u64(r.latency_cycles);
  writer.u32(static_cast<std::uint32_t>(r.severity));
  writer.u32(r.fs_damaged ? 1 : 0);
  writer.u32(r.bootable ? 1 : 0);
  writer.u32(r.repair_verified ? 1 : 0);
  writer.str(r.disasm_before);
  writer.str(r.disasm_after);
  if (!extended) return;
  writer.u32(static_cast<std::uint32_t>(r.spec.model));
  writer.u32(r.spec.target_reg);
  writer.u32(r.spec.data_addr);
  writer.u32(r.spec.data_index);
  writer.u32(r.spec.errno_value);
  writer.u32(r.data_addr);
  writer.u32(r.syscalls_after);
  writer.u32(r.cascade_syscalls);
}

bool read_result(ByteReader& reader, inject::InjectionResult& out,
                 bool extended) {
  // Byte-wide spec fields are stored as u32; a value that does not fit
  // is corrupt, not something to truncate into range.
  bool fits = true;
  const auto byte_field = [&reader, &fits] {
    const std::uint32_t value = reader.u32();
    fits = fits && value <= 0xFF;
    return static_cast<std::uint8_t>(value);
  };
  out.spec.campaign = static_cast<inject::Campaign>(reader.u32());
  out.spec.function = reader.str();
  out.spec.subsystem = static_cast<kernel::Subsystem>(reader.u32());
  out.spec.instr_addr = reader.u32();
  out.spec.instr_len = byte_field();
  out.spec.byte_index = byte_field();
  out.spec.bit_index = byte_field();
  out.spec.workload = reader.str();
  out.outcome = static_cast<inject::Outcome>(reader.u32());
  out.activation_cycle = reader.u64();
  out.cause = static_cast<inject::CrashCause>(reader.u32());
  out.crash_eip = reader.u32();
  out.crash_addr = reader.u32();
  out.crash_subsystem = static_cast<kernel::Subsystem>(reader.u32());
  out.propagated = reader.u32() != 0;
  out.latency_cycles = reader.u64();
  out.severity = static_cast<inject::Severity>(reader.u32());
  out.fs_damaged = reader.u32() != 0;
  out.bootable = reader.u32() != 0;
  out.repair_verified = reader.u32() != 0;
  out.disasm_before = reader.str();
  out.disasm_after = reader.str();
  if (extended) {
    out.spec.model = static_cast<inject::FaultModel>(byte_field());
    out.spec.target_reg = byte_field();
    out.spec.data_addr = reader.u32();
    out.spec.data_index = reader.u32();
    out.spec.errno_value = reader.u32();
    out.data_addr = reader.u32();
    out.syscalls_after = reader.u32();
    out.cascade_syscalls = reader.u32();
  }
  // Records are replayed: reject fields that would index past RAM, a
  // shift width or the register file there (Injector::run_one rejects
  // the rest of inject::spec_defect).
  const bool applicable = out.spec.model <= inject::FaultModel::SyscallErrno &&
                          out.spec.bit_index < 32 &&
                          out.spec.target_reg <= inject::kEflagsTarget &&
                          out.spec.data_addr < vm::kRamSize;
  return reader.ok() && fits && applicable;
}

std::string ShardStore::shard_path(std::uint64_t shard_index) const {
  return format("%s/shard_%06llu.kfis", dir_.c_str(),
                static_cast<unsigned long long>(shard_index));
}

std::string ShardStore::write_shard(std::uint64_t shard_index,
                                    std::uint64_t config_hash,
                                    std::vector<ShardRecord> records) const {
  // Records are written sorted by spec index so the aggregator's k-way
  // merge only ever needs the head of each shard.
  std::sort(records.begin(), records.end(),
            [](const ShardRecord& a, const ShardRecord& b) {
              return a.spec_index < b.spec_index;
            });
  ByteWriter writer;
  writer.u32(kShardMagic);
  writer.u32(kShardVersion);
  writer.u64(shard_index);
  writer.u64(config_hash);
  writer.u64(records.size());
  for (const ShardRecord& record : records) {
    writer.u64(record.spec_index);
    write_result(writer, record.result, /*extended=*/true);
  }
  const std::string path = shard_path(shard_index);
  if (!write_sealed_file(path, writer.buffer()).has_value()) return "";
  return path;
}

void ShardStore::discard_shard(std::uint64_t shard_index) const {
  std::error_code ec;
  std::filesystem::remove(shard_path(shard_index), ec);
}

std::optional<ShardCursor> ShardCursor::open(const std::string& path,
                                             std::uint64_t expect_index,
                                             std::uint64_t expect_config) {
  std::shared_ptr<const MappedFile> file = MappedFile::map(path);
  if (file == nullptr || !check_seal(file->data(), file->size())) {
    return std::nullopt;
  }
  ByteReader reader(file->data(), file->size() - kSealBytes);
  if (reader.u32() != kShardMagic || reader.u32() != kShardVersion) {
    return std::nullopt;
  }
  const std::uint64_t index = reader.u64();
  const std::uint64_t config = reader.u64();
  const std::uint64_t count = reader.u64();
  if (!reader.ok() || index != expect_index || config != expect_config) {
    return std::nullopt;
  }
  return ShardCursor(std::move(file), std::move(reader), index, count);
}

bool ShardCursor::next(ShardRecord& out) {
  if (!ok_ || read_ >= count_) return false;
  out.spec_index = reader_.u64();
  if (!read_result(reader_, out.result, /*extended=*/true)) {
    ok_ = false;
    return false;
  }
  ++read_;
  return true;
}

bool merge_shards(std::vector<ShardCursor>& cursors,
                  const std::function<bool(const ShardRecord&)>& fn) {
  // Min-heap of (spec_index, cursor position); one in-flight record per
  // cursor is the whole working set.
  using Head = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  std::vector<ShardRecord> heads(cursors.size());
  std::vector<std::uint64_t> last_in_shard(cursors.size(), 0);
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].next(heads[i])) {
      last_in_shard[i] = heads[i].spec_index;
      heap.emplace(heads[i].spec_index, i);
    } else if (!cursors[i].ok()) {
      return false;
    }
  }
  bool first = true;
  std::uint64_t last = 0;
  while (!heap.empty()) {
    const auto [index, i] = heap.top();
    heap.pop();
    if (!first && index <= last) return false;  // duplicate across shards
    first = false;
    last = index;
    if (!fn(heads[i])) return false;
    if (cursors[i].next(heads[i])) {
      // Within-shard order is a file invariant (write_shard sorts);
      // enforce it so a tampered file cannot smuggle a duplicate past
      // the cross-shard check.
      if (heads[i].spec_index <= last_in_shard[i]) return false;
      last_in_shard[i] = heads[i].spec_index;
      heap.emplace(heads[i].spec_index, i);
    } else if (!cursors[i].ok()) {
      return false;
    }
  }
  return true;
}

StreamingFold::StreamingFold(std::vector<std::uint64_t> counts,
                             bool materialize)
    : counts_(std::move(counts)), materialize_(materialize) {
  for (const std::uint64_t c : counts_) total_ += c;
  // No reserve: the counts come from an untrusted manifest, so the
  // slots grow only with records actually read from verified shards.
  if (materialize_) slots_.resize(counts_.size());
}

bool StreamingFold::add(const ShardRecord& record) {
  // A complete disjoint shard set merges to exactly 0..total-1; any
  // deviation means a shard is missing, duplicated, or mis-indexed.
  if (record.spec_index != next_ || next_ >= total_) return false;
  ++next_;
  digest_.add(record.result);
  if (materialize_) {
    std::uint64_t index = record.spec_index;
    for (std::size_t slot = 0; slot < counts_.size(); ++slot) {
      if (index < counts_[slot]) {
        slots_[slot].push_back(record.result);
        break;
      }
      index -= counts_[slot];
    }
  }
  return true;
}

}  // namespace kfi::analysis
