// Typed error taxonomy for the client-side protocol flows. Every failure a
// caller can observe is either *transient* (the network or a server was
// unavailable — retrying, failing over, or waiting may succeed) or
// *permanent* (a server verified the request and refused, or the caller's
// own state makes success impossible). The distinction drives the automatic
// retry/failover machinery in sim::Transport and the replica groups: only
// transient errors are worth another attempt.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace hcpp::core {

enum class ErrorClass : uint8_t {
  kTransient,  // loss, timeout, outage — retry/failover may succeed
  kPermanent,  // authoritative rejection — retrying cannot help
};

enum class ErrorCode : uint8_t {
  // Transient.
  kTimeout,      // per-attempt delivery timed out and retries were exhausted
  kUnreachable,  // no replica of the service answered
  // Permanent.
  kRejected,      // server authenticated the request and refused it
  kRevoked,       // caller's privilege was revoked (not in the BE cover)
  kNotFound,      // no such account / collection on an answering server
  kBadResponse,   // a delivered response failed authentication
  kPrecondition,  // caller-side state missing (no bundle, no session, …)
};

[[nodiscard]] constexpr const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kUnreachable: return "unreachable";
    case ErrorCode::kRejected: return "rejected";
    case ErrorCode::kRevoked: return "revoked";
    case ErrorCode::kNotFound: return "not-found";
    case ErrorCode::kBadResponse: return "bad-response";
    case ErrorCode::kPrecondition: return "precondition";
  }
  return "unknown";
}

struct ProtocolError {
  ErrorClass cls = ErrorClass::kPermanent;
  ErrorCode code = ErrorCode::kRejected;
  /// Transport attempts consumed before the error was raised (0 when the
  /// flow failed before reaching the transport).
  uint32_t attempts = 0;
  std::string detail;

  [[nodiscard]] bool transient() const noexcept {
    return cls == ErrorClass::kTransient;
  }
};

[[nodiscard]] inline ProtocolError transient_error(ErrorCode code,
                                                   uint32_t attempts = 0,
                                                   std::string detail = {}) {
  return {ErrorClass::kTransient, code, attempts, std::move(detail)};
}

[[nodiscard]] inline ProtocolError permanent_error(ErrorCode code,
                                                   uint32_t attempts = 0,
                                                   std::string detail = {}) {
  return {ErrorClass::kPermanent, code, attempts, std::move(detail)};
}

/// Minimal expected-style carrier: a value or a ProtocolError. Accessing the
/// wrong alternative throws std::logic_error — these are programming errors,
/// not protocol outcomes.
template <typename T>
class Result {
 public:
  Result(T value) : val_(std::move(value)) {}  // NOLINT: implicit by design
  Result(ProtocolError e) : err_(std::move(e)) {}  // NOLINT

  [[nodiscard]] bool ok() const noexcept { return val_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] T& value() {
    if (!val_.has_value()) throw std::logic_error("Result: no value");
    return *val_;
  }
  [[nodiscard]] const T& value() const {
    if (!val_.has_value()) throw std::logic_error("Result: no value");
    return *val_;
  }
  [[nodiscard]] T value_or(T fallback) const {
    return val_.has_value() ? *val_ : std::move(fallback);
  }
  [[nodiscard]] const ProtocolError& error() const {
    if (!err_.has_value()) throw std::logic_error("Result: no error");
    return *err_;
  }

 private:
  std::optional<T> val_;
  std::optional<ProtocolError> err_;
};

template <>
class Result<void> {
 public:
  Result() = default;  // success
  Result(ProtocolError e) : err_(std::move(e)) {}  // NOLINT
  /// Any Result read as a bare acknowledgement, its value dropped.
  template <typename T>
  Result(const Result<T>& r)  // NOLINT: implicit by design
      : err_(r.ok() ? std::nullopt : std::optional<ProtocolError>(r.error())) {}

  [[nodiscard]] bool ok() const noexcept { return !err_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }
  [[nodiscard]] const ProtocolError& error() const {
    if (!err_.has_value()) throw std::logic_error("Result: no error");
    return *err_;
  }

 private:
  std::optional<ProtocolError> err_;
};

}  // namespace hcpp::core
