// Shared little-endian binary (de)serialization: the byte layout the
// campaign artifact cache (analysis/io), the golden-bundle files
// (serve/bundle), and the shard store (analysis/store) all speak.  A
// ByteWriter appends fixed-width integers and length-prefixed strings
// to an in-memory buffer; a ByteReader walks a const byte range with a
// sticky `ok` flag instead of exceptions, so a truncated or corrupt
// file degrades into one boolean check at the end of the parse.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace kfi {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// FNV-1a over a byte range, continuing from `h` — the hash every
// result digest and config identity is built on.
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t len,
                                 std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

// Word-wise content hash: the checksum trailer of every sealed file
// (support/fsio), an order of magnitude faster than the byte-wise
// fnv1a_bytes.  Four lanes each take every fourth 8-byte word of the
// 32-byte stripes as h = rotl(h ^ word, 29) * odd; the lanes are
// folded into the length the same way, and FNV-1a covers the tail of
// fewer than 32 bytes.
// Every step is a bijection of its lane, and every fold step of the
// lane it folds in, so any corruption confined to one word, or to one
// tail byte, always changes the result.  The rotate keeps equal flips
// in two words of one lane from cancelling, as they can in a
// word-wise FNV.  Words are loaded by memcpy in host byte order (the
// order ByteWriter writes), so the value does not depend on the
// buffer's alignment.  Not a substitute for fnv1a_bytes: every
// result digest stays FNV-1a, and changing this function invalidates
// every sealed file.  ContentHasher computes it over bytes fed in
// pieces (a sealed file written from several spans).
class ContentHasher {
 public:
  // Feeds the next `len` bytes; the value depends only on the bytes fed
  // so far, never on how they were split into calls.
  void update(const void* data, std::size_t len) {
    if (len == 0) return;  // `data` may be null then
    const auto* p = static_cast<const std::uint8_t*>(data);
    total_ += len;
    if (pending_ > 0) {
      const std::size_t take = len < 32 - pending_ ? len : 32 - pending_;
      std::memcpy(stripe_ + pending_, p, take);
      pending_ += take;
      p += take;
      len -= take;
      if (pending_ < 32) return;
      mix_stripe(stripe_);
      pending_ = 0;
    }
    for (; len >= 32; len -= 32, p += 32) mix_stripe(p);
    std::memcpy(stripe_, p, len);
    pending_ = len;
  }

  // The hash of every byte fed so far.
  std::uint64_t value() const {
    std::uint64_t h = total_;
    for (const std::uint64_t lane : lanes_) h = mix(h, lane);
    return fnv1a_bytes(stripe_, pending_, h);
  }

 private:
  static std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
    constexpr std::uint64_t kOdd = 0x9E3779B97F4A7C15ULL;
    constexpr int kRot = 29;
    return std::rotl(h ^ word, kRot) * kOdd;
  }
  void mix_stripe(const std::uint8_t* p) {
    for (int i = 0; i < 4; ++i) {
      std::uint64_t word;
      std::memcpy(&word, p + 8 * i, 8);
      lanes_[i] = mix(lanes_[i], word);
    }
  }

  std::uint64_t lanes_[4] = {kFnvOffset, kFnvOffset + 1, kFnvOffset + 2,
                             kFnvOffset + 3};
  std::uint64_t total_ = 0;
  std::uint8_t stripe_[32] = {};
  std::size_t pending_ = 0;
};

inline std::uint64_t content_hash(const void* data, std::size_t len) {
  ContentHasher hasher;
  hasher.update(data, len);
  return hasher.value();
}

class ByteWriter {
 public:
  ByteWriter() = default;
  // A writer that keeps no bytes and only counts them: running a
  // serializer through it first gives the size to reserve() for the
  // real pass, so a large body is written without regrowth copies.
  static ByteWriter sizer() {
    ByteWriter writer;
    writer.counting_ = true;
    return writer;
  }

  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u32(std::uint32_t v) { bytes(&v, 4); }
  void u64(std::uint64_t v) { bytes(&v, 8); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t len) {
    if (counting_) {
      counted_ += len;
      return;
    }
    out_.append(static_cast<const char*>(data), len);
  }

  const std::string& buffer() const { return out_; }
  std::string take() { return std::move(out_); }
  std::size_t size() const { return counting_ ? counted_ : out_.size(); }

 private:
  std::string out_;
  bool counting_ = false;
  std::size_t counted_ = 0;
};

class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size)
      : data_(static_cast<const std::uint8_t*>(data)), size_(size) {}
  explicit ByteReader(const std::string& data)
      : ByteReader(data.data(), data.size()) {}

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_ - 1];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v;
    std::memcpy(&v, data_ + pos_ - 4, 4);
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v;
    std::memcpy(&v, data_ + pos_ - 8, 8);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    const std::uint8_t* p = bytes(n);
    return p != nullptr ? std::string(reinterpret_cast<const char*>(p), n)
                        : std::string();
  }
  // A view into the underlying buffer (no copy) — how mmap'd snapshot
  // payloads stay zero-copy.  Returns nullptr (and poisons `ok`) when
  // fewer than `len` bytes remain.
  const std::uint8_t* bytes(std::size_t len) {
    if (!take(len)) return nullptr;
    return data_ + pos_ - len;
  }

  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace kfi
