// Scratch paths for the suites that write to disk.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace hcpp {

/// `name` inside a directory private to this process, removed first if a
/// test of this process made it before. The directory (mkdtemp under
/// temp_directory_path()) goes away at exit. Private, so two processes of
/// one suite never share files: the sanitizer build registers some suites
/// twice, and `ctest -j` runs both at once.
inline std::filesystem::path fresh_temp_path(const std::string& name) {
  static const struct Root {
    std::filesystem::path dir;
    Root() {
      std::string tmpl =
          (std::filesystem::temp_directory_path() / "hcpp-test-XXXXXX")
              .string();
      if (::mkdtemp(tmpl.data()) == nullptr) {
        throw std::runtime_error("mkdtemp failed for " + tmpl);
      }
      dir = tmpl;
    }
    ~Root() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } root;
  std::filesystem::path p = root.dir / name;
  std::filesystem::remove_all(p);
  return p;
}

}  // namespace hcpp
