// Crash-safe file persistence, checksum-sealed files, and zero-copy
// file mapping.
//
// Every artifact the campaign service persists — golden bundles, shard
// results, manifests, campaign caches — goes through
// atomic_write_file(): the bytes land in a same-directory temp file,
// are fsync'd, and only then atomically renamed over the target, so a
// reader can never observe a half-written artifact and a crash leaves
// at worst a stray "<path>.tmp.<pid>.<n>".  Concurrent writers of one
// path each use their own temp file; the last rename wins.
//
// The service's own formats (.kfim manifests, .kfib bundles, .kfis
// shards) are sealed on top of that: write_sealed_file() appends
// content_hash(body) as an 8-byte trailer, and a reader accepts the
// bytes only when check_seal() finds that trailer intact, so a
// flipped bit or a cut anywhere in the file is refused — one integrity
// check for all three formats (bundles and shards check it before they
// parse a field; manifests last, to name a cut as a cut).  MappedFile
// is the read side: a read-only mmap whose pages are shared through
// the page cache between every process that maps the same bundle,
// which is what makes N forked campaign workers restore from one
// golden image without N copies.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace kfi {

// Writes `size` bytes to `path` via write-temp + fsync + atomic rename.
// On any failure the temp file is removed and `path` is untouched
// (either the old content or absent).  Returns false on failure.
bool atomic_write_file(const std::string& path, const void* data,
                       std::size_t size);
bool atomic_write_file(const std::string& path, const std::string& bytes);

// Size of the checksum trailer that ends every sealed file.
inline constexpr std::size_t kSealBytes = 8;

// One piece of a file body written straight from where it lies.
struct ByteSpan {
  const void* data = nullptr;
  std::size_t size = 0;
};

// Writes `body` followed by content_hash(body) to `path`, as
// atomic_write_file() does; the trailer goes into the same temp file,
// so the body is never copied or regrown.  Returns the trailer, or
// nullopt on failure.
std::optional<std::uint64_t> write_sealed_file(const std::string& path,
                                               const std::string& body);
// The same for a body that is the spans back to back, written from
// where they lie (a base image's payloads) and never gathered into
// one buffer.
std::optional<std::uint64_t> write_sealed_file(
    const std::string& path, const std::vector<ByteSpan>& body);

// The trailer of a sealed byte span — its last kSealBytes, when they
// equal content_hash of everything before them — or nullopt for a
// span that is too short, cut, or corrupt anywhere.  The body is the
// first size - kSealBytes bytes.
std::optional<std::uint64_t> check_seal(const void* data, std::size_t size);

// Whole-file read (small control files: manifests, claims).
std::optional<std::string> read_file_bytes(const std::string& path);

// A read-only memory mapping of a whole file.  The mapping lives until
// the object is destroyed; hand the shared_ptr to whatever borrows
// pointers into the file (view snapshots) as its keepalive.
class MappedFile {
 public:
  // Maps `path` read-only; nullptr on failure (missing, empty,
  // unmappable).
  static std::shared_ptr<const MappedFile> map(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  MappedFile(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace kfi
