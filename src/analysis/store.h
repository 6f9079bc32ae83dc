// Shard artifact store + streaming aggregation.
//
// The process-sharded campaign service (src/serve) splits a campaign's
// spec space into contiguous ranges of the locality-sorted execution
// order.  Each worker process streams its finished shard into this
// store under the fixed name `shard_<index>.kfis`, sealed with the
// checksum trailer every service file carries (support/fsio) — so a
// truncated, bit-flipped, or half-written artifact fails the seal when
// ShardCursor::open() maps it, no trust in the writer required.  Files
// land via atomic rename, so a shard either exists wholly or not at
// all; a killed campaign resumes by re-running exactly the shards whose
// artifacts are missing or do not open.
//
// Aggregation is streaming and memory-bounded: every shard file holds
// its records sorted by global spec index, ShardCursor walks one
// record at a time over a read-only mmap, and merge_shards() k-way
// merges the cursors into the single ascending spec-order stream —
// the exact order the in-process path folds its digest in, which is
// why the sharded digest is bit-identical to run_campaign()'s.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "inject/campaign.h"
#include "support/fsio.h"
#include "support/serial.h"

namespace kfi::analysis {

// Streaming fold of the campaign result digest: FNV-1a over every
// outcome-identifying field of each result, in spec order across the
// campaign sequence.  The pinned smoke digests are this fold:
// 54fdd95d1638c920 over campaigns A, B, C and 9888393f152a05c3 over
// D, E, F (tests/check/fault_model_contract_test.cc).
class ResultDigest {
 public:
  void add(const inject::InjectionResult& r);
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t v);
  std::uint64_t h_ = kFnvOffset;
};

// The digest over complete in-memory runs (the in-process path).
std::uint64_t results_digest(const std::vector<inject::CampaignRun>& runs);

// One result record with the exact field order of the campaign cache
// format (analysis/io.cc, format v4) — the shard files and the cache
// files speak the same per-result byte layout.  `extended` appends the
// fault-model fields (spec model/target/data/errno plus the resolved
// data address and cascade counters) after the v4 layout.  Shards
// always write it; cache files whose results are all InstrBit omit it
// so their pinned bytes never change.
void write_result(ByteWriter& writer, const inject::InjectionResult& r,
                  bool extended = false);
// False for a truncated record and for one whose spec would drive the
// machine out of bounds on replay (a data address outside RAM, a flip
// bit past 31, a register past EFLAGS, an unknown fault model).
bool read_result(ByteReader& reader, inject::InjectionResult& out,
                 bool extended = false);

// Encoded size of the smallest possible record (every string empty):
// 20 u32 fields (four of them string lengths) and 2 u64s, plus 8 u32s
// in the extended layout.  Readers bound an untrusted record count by
// remaining bytes / this before they reserve anything.
constexpr std::size_t min_result_bytes(bool extended) {
  return 20 * 4 + 2 * 8 + (extended ? 8 * 4 : 0);
}

// True when `r` carries fault-model fields the v4/v1 record layouts
// cannot represent (any model other than InstrBit).
bool result_is_extended(const inject::InjectionResult& r);

// One shard record: the result plus its position in the global spec
// order (campaign A's specs first, then B, then C — the order the
// digest folds in).
struct ShardRecord {
  std::uint64_t spec_index = 0;
  inject::InjectionResult result;
};

class ShardCursor;

class ShardStore {
 public:
  explicit ShardStore(std::string dir) : dir_(std::move(dir)) {}

  // "<dir>/shard_NNNNNN.kfis": each shard has exactly one file name.
  std::string shard_path(std::uint64_t shard_index) const;

  // Serializes `records` (sorted by spec_index internally) and writes
  // the sealed artifact crash-safely to shard_path().  Returns that
  // path, or "" on I/O failure.  `config_hash` ties the shard to one
  // campaign manifest; ShardCursor::open() rejects strays.
  std::string write_shard(std::uint64_t shard_index,
                          std::uint64_t config_hash,
                          std::vector<ShardRecord> records) const;

  // Removes shard `index`'s artifact (after it failed to open), so the
  // shard re-runs.
  void discard_shard(std::uint64_t shard_index) const;

 private:
  std::string dir_;
};

// Streaming reader over one shard artifact: checks the seal and the
// header, then yields records one at a time straight out of a
// read-only mmap (no whole-shard vector is ever materialized).
class ShardCursor {
 public:
  // Opens and verifies `path`: opening is the shard's verification.
  // Rejects a missing file, a broken seal, wrong magic/version, a shard
  // index != `expect_index`, or a config hash != `expect_config`.
  static std::optional<ShardCursor> open(const std::string& path,
                                         std::uint64_t expect_index,
                                         std::uint64_t expect_config);

  // Advances to the next record; false at end-of-shard or on a corrupt
  // tail (distinguish via ok()).
  bool next(ShardRecord& out);

  bool ok() const { return ok_; }
  std::uint64_t records() const { return count_; }
  std::uint64_t shard_index() const { return index_; }

 private:
  ShardCursor(std::shared_ptr<const MappedFile> file, ByteReader reader,
              std::uint64_t index, std::uint64_t count)
      : file_(std::move(file)),
        reader_(std::move(reader)),
        index_(index),
        count_(count) {}

  std::shared_ptr<const MappedFile> file_;
  ByteReader reader_;
  std::uint64_t index_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t read_ = 0;
  bool ok_ = true;
};

// K-way merge of shard cursors into one ascending spec-index stream.
// `fn` is invoked once per record, in strictly increasing spec order;
// return false from it to abort.  Returns false on any cursor error,
// an out-of-order shard file, or a duplicate spec index across shards.
bool merge_shards(std::vector<ShardCursor>& cursors,
                  const std::function<bool(const ShardRecord&)>& fn);

// Consumes the merged stream: verifies it is exactly the contiguous
// sequence 0..total-1, folds the result digest, and (optionally)
// materializes the per-campaign result vectors.  `counts[i]` is the
// number of specs in campaign slot i (slot boundaries of the global
// index space).
class StreamingFold {
 public:
  StreamingFold(std::vector<std::uint64_t> counts, bool materialize);

  // Feed the next merged record; false on a gap, duplicate, or
  // overrun (the shard set does not tile the spec space).
  bool add(const ShardRecord& record);

  // True once every spec index has been folded exactly once.
  bool complete() const { return next_ == total_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t digest() const { return digest_.value(); }

  // Materialized results per campaign slot (empty unless constructed
  // with materialize = true).
  std::vector<std::vector<inject::InjectionResult>>& slots() {
    return slots_;
  }

 private:
  std::vector<std::uint64_t> counts_;
  bool materialize_;
  std::uint64_t total_ = 0;
  std::uint64_t next_ = 0;
  ResultDigest digest_;
  std::vector<std::vector<inject::InjectionResult>> slots_;
};

}  // namespace kfi::analysis
