#include "vm/snapshot.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>

namespace kfi::vm {

namespace {

std::uint32_t count_chunks(std::size_t size, std::uint32_t chunk_size) {
  return static_cast<std::uint32_t>((size + chunk_size - 1) / chunk_size);
}

}  // namespace

ChunkedSnapshot ChunkedSnapshot::full(const std::uint8_t* data,
                                      std::size_t size,
                                      std::uint32_t chunk_size) {
  assert(chunk_size != 0);
  ChunkedSnapshot snap;
  snap.chunk_size_ = chunk_size;
  snap.size_ = size;
  snap.chunk_count_ = count_chunks(size, chunk_size);
  snap.data_.assign(data, data + size);
  return snap;
}

ChunkedSnapshot ChunkedSnapshot::delta(
    const std::uint8_t* data, std::size_t size,
    const std::vector<std::uint64_t>& versions, const ChunkedSnapshot& base,
    std::vector<std::uint64_t>& base_memo) {
  assert(base.valid() && !base.is_delta());
  assert(size == base.size_);
  ChunkedSnapshot snap;
  snap.chunk_size_ = base.chunk_size_;
  snap.size_ = size;
  snap.chunk_count_ = base.chunk_count_;
  assert(versions.size() >= snap.chunk_count_);
  snap.base_ = &base;
  if (base_memo.size() < snap.chunk_count_) {
    base_memo.assign(snap.chunk_count_, kUnknownVersion);
  }
  for (std::uint32_t i = 0; i < snap.chunk_count_; ++i) {
    if (versions[i] == base_memo[i]) continue;
    const std::uint32_t len = snap.chunk_len(i);
    const std::uint8_t* live = data + static_cast<std::size_t>(i) * snap.chunk_size_;
    if (std::memcmp(live, base.chunk(i), len) == 0) {
      base_memo[i] = versions[i];
      continue;
    }
    snap.index_.push_back(i);
    const std::size_t at = snap.data_.size();
    snap.data_.resize(at + snap.chunk_size_, 0);
    std::memcpy(snap.data_.data() + at, live, len);
  }
  snap.index_.shrink_to_fit();
  snap.data_.shrink_to_fit();
  return snap;
}

const std::uint8_t* ChunkedSnapshot::chunk(std::uint32_t index) const {
  const auto it = std::lower_bound(index_.begin(), index_.end(), index);
  const bool stored = it != index_.end() && *it == index;
  return chunk_bytes(index, stored,
                     static_cast<std::size_t>(it - index_.begin()));
}

ChunkedSnapshot ChunkedSnapshot::from_parts(
    std::uint32_t chunk_size, std::size_t size, const ChunkedSnapshot* base,
    std::vector<std::uint32_t> index, const std::uint8_t* payload,
    std::size_t payload_size) {
  assert(chunk_size != 0);
  ChunkedSnapshot snap;
  snap.chunk_size_ = chunk_size;
  snap.size_ = size;
  snap.chunk_count_ = count_chunks(size, chunk_size);
  if (base != nullptr) {
    assert(base->valid() && !base->is_delta());
    assert(size == base->size_ && chunk_size == base->chunk_size_);
    assert(std::adjacent_find(index.begin(), index.end(),
                              std::greater_equal<>()) == index.end());
    assert(index.empty() || index.back() < snap.chunk_count_);
    assert(payload_size == index.size() * chunk_size);
    snap.base_ = base;
    snap.index_ = std::move(index);
  } else {
    assert(index.empty() && payload_size == size);
  }
  snap.view_ = payload;
  snap.view_size_ = payload_size;
  return snap;
}

bool ChunkedSnapshot::matches(const std::uint8_t* data,
                              const std::vector<std::uint64_t>& versions,
                              const std::vector<std::uint64_t>& memo,
                              const std::vector<std::uint64_t>* base_memo,
                              std::size_t masked) const {
  assert(valid());
  assert(versions.size() >= chunk_count_);
  // `next` walks the stored-chunk list alongside the chunk loop.
  std::size_t next = 0;
  for (std::uint32_t i = 0; i < chunk_count_; ++i) {
    const bool stored = next < index_.size() && index_[next] == i;
    const std::size_t slot = stored ? next++ : 0;
    if (proven_equal(i, versions[i], stored, memo, base_memo)) continue;
    const std::size_t begin = static_cast<std::size_t>(i) * chunk_size_;
    const std::uint8_t* live = data + begin;
    const std::uint8_t* want = chunk_bytes(i, stored, slot);
    const std::uint32_t len = chunk_len(i);
    if (masked >= begin && masked < begin + len) {
      const std::size_t off = masked - begin;
      if (std::memcmp(live, want, off) != 0) return false;
      if (off + 1 < len &&
          std::memcmp(live + off + 1, want + off + 1, len - off - 1) != 0) {
        return false;
      }
    } else if (std::memcmp(live, want, len) != 0) {
      return false;
    }
  }
  return true;
}

std::uint32_t ChunkedSnapshot::restore_into(
    std::uint8_t* data, std::vector<std::uint64_t>& versions,
    std::vector<std::uint64_t>& memo,
    std::vector<std::uint64_t>* base_memo) const {
  assert(valid());
  assert(versions.size() >= chunk_count_);
  if (memo.size() < chunk_count_) memo.assign(chunk_count_, kUnknownVersion);
  if (base_ != nullptr && base_memo != nullptr &&
      base_memo->size() < chunk_count_) {
    base_memo->assign(chunk_count_, kUnknownVersion);
  }
  std::uint32_t copied = 0;
  std::size_t next = 0;
  for (std::uint32_t i = 0; i < chunk_count_; ++i) {
    const bool stored = next < index_.size() && index_[next] == i;
    const std::size_t slot = stored ? next++ : 0;
    if (proven_equal(i, versions[i], stored, memo, base_memo)) continue;
    std::memcpy(data + static_cast<std::size_t>(i) * chunk_size_,
                chunk_bytes(i, stored, slot), chunk_len(i));
    ++versions[i];
    memo[i] = versions[i];
    // A base-resolved chunk now also equals the base at this version.
    if (base_ != nullptr && base_memo != nullptr && !stored) {
      (*base_memo)[i] = versions[i];
    }
    ++copied;
  }
  return copied;
}

}  // namespace kfi::vm
