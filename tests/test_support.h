// Shared helpers for the gtest suites.
//
// ScopedTestDir gives a test its own scratch directory. gtest_discover_tests
// runs every TEST as a separate process, so under `ctest -j` tests of one
// fixture run concurrently; a directory derived from a fixed name would let
// them delete each other's files. The directory name carries the full test
// name, the pid and a sequence number; the directory is removed on scope
// exit.

#ifndef IMAGEPROOF_TESTS_TEST_SUPPORT_H_
#define IMAGEPROOF_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace imageproof::testing_support {

class ScopedTestDir {
 public:
  ScopedTestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr
                           ? std::string("no_test")
                           : std::string(info->test_suite_name()) + "." +
                                 info->name();
    // Parameterised tests carry '/' in their names.
    for (char& ch : name) {
      if (ch == '/') ch = '_';
    }
    // The sequence number keeps two directories of one test apart.
    static int seq = 0;
    path_ = ::testing::TempDir() + "/" + name + "." +
            std::to_string(::getpid()) + "." + std::to_string(seq++);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTestDir(const ScopedTestDir&) = delete;
  ScopedTestDir& operator=(const ScopedTestDir&) = delete;

  const std::string& path() const { return path_; }
  // `name` inside the directory (a file, or a subdirectory the caller
  // creates).
  std::string Path(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace imageproof::testing_support

#endif  // IMAGEPROOF_TESTS_TEST_SUPPORT_H_
