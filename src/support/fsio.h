// Crash-safe file persistence and zero-copy file mapping.
//
// Every artifact the campaign service persists — golden bundles, shard
// results, manifests, campaign caches — goes through
// atomic_write_file(): the bytes land in a same-directory temp file,
// are fsync'd, and only then atomically renamed over the target, so a
// reader can never observe a half-written artifact and a crash leaves
// at worst a stray "<path>.tmp.<pid>.<n>".  Concurrent writers of one
// path each use their own temp file; the last rename wins.  MappedFile
// is the read side: a read-only mmap whose pages are shared through
// the page cache between every process that maps the same bundle,
// which is what makes N forked campaign workers restore from one
// golden image without N copies.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace kfi {

// Writes `size` bytes to `path` via write-temp + fsync + atomic rename.
// On any failure the temp file is removed and `path` is untouched
// (either the old content or absent).  Returns false on failure.
bool atomic_write_file(const std::string& path, const void* data,
                       std::size_t size);
bool atomic_write_file(const std::string& path, const std::string& bytes);

// Whole-file read (small control files: manifests, claims).
std::optional<std::string> read_file_bytes(const std::string& path);

// FNV-1a over a file's content, streamed in fixed-size buffers so
// verification of a multi-megabyte artifact never holds it in RAM.
// Returns std::nullopt when the file cannot be read.
std::optional<std::uint64_t> file_content_hash(const std::string& path);

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
