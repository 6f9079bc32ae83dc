// atomic_write_file under concurrent writers of one path: every write
// lands, the file always holds one writer's complete bytes, and no
// temp file is left behind.
#include "support/fsio.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace kfi {
namespace {

TEST(Fsio, ConcurrentWritersOfOnePathAllLand) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "kfi_fsio_test_concurrent";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "artifact.bin").string();
  // Large enough that one write is still in flight while another
  // writer opens its temp file.
  const std::string payload(1 << 20, 'k');

  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        if (!atomic_write_file(path, payload)) ++failures;
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(read_file_bytes(path), payload);
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << "a temp file was left behind";
}

}  // namespace
}  // namespace kfi
