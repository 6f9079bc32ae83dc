#include "support/fsio.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "support/serial.h"

namespace kfi {

namespace {

bool write_all(int fd, const ByteSpan& span) {
  const auto* p = static_cast<const std::uint8_t*>(span.data);
  std::size_t written = 0;
  while (written < span.size) {
    const ssize_t n = ::write(fd, p + written, span.size - written);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

// Writes the spans back to back into one temp file, then lands it.
bool atomic_write_spans(const std::string& path,
                        const std::vector<ByteSpan>& spans) {
  // The temp file must live in the target's directory: rename() is
  // atomic only within one filesystem.  Its name is private to this
  // writer (pid and a per-process sequence number): writers racing to
  // land the same path, such as campaign services preparing one shared
  // bundle directory, must not truncate each other's temp file or
  // rename it away under them.  The last rename wins.
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;

  bool ok = true;
  for (const ByteSpan& span : spans) {
    if (!write_all(fd, span)) {
      ok = false;
      break;
    }
  }
  // fsync before rename: the rename must never become durable ahead of
  // the bytes it points at, or a crash could leave a truncated artifact
  // under the final (trusted) name.
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) ::unlink(tmp.c_str());
  return ok;
}

}  // namespace

bool atomic_write_file(const std::string& path, const void* data,
                       std::size_t size) {
  return atomic_write_spans(path, {{data, size}});
}

bool atomic_write_file(const std::string& path, const std::string& bytes) {
  return atomic_write_file(path, bytes.data(), bytes.size());
}

std::optional<std::uint64_t> write_sealed_file(const std::string& path,
                                               const std::string& body) {
  return write_sealed_file(path, {{body.data(), body.size()}});
}

std::optional<std::uint64_t> write_sealed_file(
    const std::string& path, const std::vector<ByteSpan>& body) {
  ContentHasher hasher;
  for (const ByteSpan& span : body) hasher.update(span.data, span.size);
  const std::uint64_t seal = hasher.value();
  std::vector<ByteSpan> spans = body;
  spans.push_back({&seal, kSealBytes});
  if (!atomic_write_spans(path, spans)) return std::nullopt;
  return seal;
}

std::optional<std::uint64_t> check_seal(const void* data, std::size_t size) {
  if (size < kSealBytes) return std::nullopt;
  const std::size_t body = size - kSealBytes;
  std::uint64_t seal;
  std::memcpy(&seal, static_cast<const std::uint8_t*>(data) + body,
              kSealBytes);
  if (content_hash(data, body) != seal) return std::nullopt;
  return seal;
}

std::optional<std::string> read_file_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::string data((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  if (!file.good() && !file.eof()) return std::nullopt;
  return data;
}

std::shared_ptr<const MappedFile> MappedFile::map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return nullptr;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return nullptr;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (mapped == MAP_FAILED) return nullptr;
  return std::shared_ptr<const MappedFile>(
      new MappedFile(static_cast<const std::uint8_t*>(mapped), size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

}  // namespace kfi
