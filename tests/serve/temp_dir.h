// Per-process temp directories for the serve suites.  Every directory a
// test makes lives under "<tmp>/kfi_serve_test_<pid>", so two runs of
// the suites on one host (a sanitizer build next to the normal one)
// never share a campaign, shard or bundle directory.  The root is
// removed when the test program ends.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace kfi::serve::test {

inline const std::string& temp_root() {
  static const std::string root =
      (std::filesystem::temp_directory_path() /
       ("kfi_serve_test_" + std::to_string(::getpid())))
          .string();
  return root;
}

inline std::string temp_path(const std::string& name) {
  return temp_root() + "/" + name;
}

inline std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

class TempRootCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(temp_root(), ec);
  }
};

inline ::testing::Environment* const kTempRootCleanup =
    ::testing::AddGlobalTestEnvironment(new TempRootCleanup);

}  // namespace kfi::serve::test
