// Scoped HCPP_FORCE_GENERIC toggle for the suites that compare the host's
// kernels with the portable ones inside one process.
#pragma once

#include <cstdlib>
#include <string>

#include "src/mp/dispatch.h"

namespace hcpp {

/// Sets or clears HCPP_FORCE_GENERIC and re-reads the dispatch state;
/// restores the previous value and re-reads it again on destruction.
/// Contexts built while the guard is alive keep the kernels it selected.
class ForceGenericGuard {
 public:
  explicit ForceGenericGuard(bool on) {
    const char* prev = std::getenv("HCPP_FORCE_GENERIC");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (on) {
      ::setenv("HCPP_FORCE_GENERIC", "1", 1);
    } else {
      ::unsetenv("HCPP_FORCE_GENERIC");
    }
    mp::refresh_dispatch();
  }
  ~ForceGenericGuard() {
    if (had_prev_) {
      ::setenv("HCPP_FORCE_GENERIC", prev_.c_str(), 1);
    } else {
      ::unsetenv("HCPP_FORCE_GENERIC");
    }
    mp::refresh_dispatch();
  }
  ForceGenericGuard(const ForceGenericGuard&) = delete;
  ForceGenericGuard& operator=(const ForceGenericGuard&) = delete;

 private:
  bool had_prev_ = false;
  std::string prev_;
};

}  // namespace hcpp
